"""Binary sample stores.

A store is one file holding (latent, embedding, ref) records plus a
fixed 32-byte header.  All scalars are little-endian; vectors are
float32 on disk and promoted to float64 in memory.  Layout:

    header:  magic "BBGC" | u32 version | u32 latent_dim
             | u32 embed_dim | u64 count | u64 seed
    record:  latent_dim * f32 | embed_dim * f32 | u32 ref_len | ref bytes

Writers stage into ``<path>.tmp`` and rename at close, so a store path
either holds a complete previous file or a complete new one.  Readers
run in strict mode by default (any truncation raises); recovery mode
salvages the records that parse completely.
"""

from __future__ import annotations

import os
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    NonFiniteError,
    TruncatedStoreError,
    VersionMismatchError,
)

MAGIC = b"BBGC"
VERSION = 1
HEADER = struct.Struct("<4sIIIQQ")
REF_LEN = struct.Struct("<I")


@dataclass
class SampleStore:
    """In-memory view of a store file."""

    latents: np.ndarray      # (count, latent_dim) float64
    embeddings: np.ndarray   # (count, embed_dim) float64
    seed: int
    refs: list[bytes] | None = None   # None means every ref is empty

    @property
    def count(self) -> int:
        return self.latents.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.latents.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]

    def ref(self, i: int) -> bytes:
        return b"" if self.refs is None else self.refs[i]


def _check_batch(latents: np.ndarray, embeddings: np.ndarray,
                 latent_dim: int, embed_dim: int) -> tuple[np.ndarray, np.ndarray]:
    latents = np.asarray(latents, dtype=np.float64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != latent_dim:
        raise DimensionMismatchError(
            f"latents shape {latents.shape}, expected (*, {latent_dim})")
    if embeddings.ndim != 2 or embeddings.shape[1] != embed_dim:
        raise DimensionMismatchError(
            f"embeddings shape {embeddings.shape}, expected (*, {embed_dim})")
    if latents.shape[0] != embeddings.shape[0]:
        raise DimensionMismatchError(
            f"{latents.shape[0]} latents vs {embeddings.shape[0]} embeddings")
    if not np.all(np.isfinite(latents)) or not np.all(np.isfinite(embeddings)):
        raise NonFiniteError("store records must be finite")
    return latents, embeddings


class StoreWriter:
    """Streaming store writer with atomic replace on close."""

    def __init__(self, path: str | os.PathLike, latent_dim: int, embed_dim: int, seed: int):
        if latent_dim < 1 or embed_dim < 1:
            raise ValueError(f"dims must be >= 1, got {latent_dim}, {embed_dim}")
        self.path = os.fspath(path)
        self.latent_dim = int(latent_dim)
        self.embed_dim = int(embed_dim)
        self.seed = int(seed)
        self.count = 0
        self._tmp = self.path + ".tmp"
        self._fh = open(self._tmp, "wb")
        self._fh.write(HEADER.pack(MAGIC, VERSION, self.latent_dim,
                                   self.embed_dim, 0, self.seed))

    def append(self, latents: np.ndarray, embeddings: np.ndarray,
               refs: list[bytes] | None = None) -> None:
        latents, embeddings = _check_batch(latents, embeddings,
                                           self.latent_dim, self.embed_dim)
        n = latents.shape[0]
        if refs is not None and len(refs) != n:
            raise DimensionMismatchError(f"{len(refs)} refs for {n} records")
        lat32 = latents.astype("<f4")
        emb32 = embeddings.astype("<f4")
        if refs is None:
            # Fixed-size records: interleave via one bytes matrix.
            rec = np.zeros((n, 4 * self.latent_dim + 4 * self.embed_dim + 4),
                           dtype=np.uint8)
            rec[:, :4 * self.latent_dim] = lat32.view(np.uint8)
            rec[:, 4 * self.latent_dim:-4] = emb32.view(np.uint8)
            self._fh.write(rec.tobytes())
        else:
            for i in range(n):
                self._fh.write(lat32[i].tobytes())
                self._fh.write(emb32[i].tobytes())
                self._fh.write(REF_LEN.pack(len(refs[i])))
                self._fh.write(refs[i])
        self.count += n

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.seek(0)
        self._fh.write(HEADER.pack(MAGIC, VERSION, self.latent_dim,
                                   self.embed_dim, self.count, self.seed))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            os.unlink(self._tmp)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_store(path: str | os.PathLike, latents: np.ndarray, embeddings: np.ndarray,
                seed: int, refs: list[bytes] | None = None) -> None:
    latents = np.asarray(latents, dtype=np.float64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if latents.ndim != 2 or embeddings.ndim != 2:
        raise DimensionMismatchError("latents and embeddings must be 2-D")
    with StoreWriter(path, latents.shape[1], embeddings.shape[1], seed) as w:
        w.append(latents, embeddings, refs)


def read_header(path: str | os.PathLike) -> tuple[int, int, int, int]:
    """(latent_dim, embed_dim, count, seed) from a store header."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
    return parse_header(head)


def parse_header(head: bytes) -> tuple[int, int, int, int]:
    if len(head) < HEADER.size:
        raise TruncatedStoreError(f"header needs {HEADER.size} bytes, got {len(head)}")
    magic, version, latent_dim, embed_dim, count, seed = HEADER.unpack(head[:HEADER.size])
    if magic != MAGIC:
        raise BadMagicError(f"magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(f"version {version}, expected {VERSION}")
    if latent_dim < 1 or embed_dim < 1:
        raise TruncatedStoreError(f"invalid dims {latent_dim}x{embed_dim}")
    return latent_dim, embed_dim, count, seed


def parse_records(payload: bytes | memoryview, latent_dim: int, embed_dim: int,
                  count: int) -> tuple[np.ndarray, np.ndarray, list[bytes] | None, int]:
    """Parse up to ``count`` records; returns (latents, embeddings, refs, parsed).

    ``parsed`` < ``count`` signals truncation; callers decide whether
    that is fatal.  ``refs`` is None when every parsed ref is empty.
    """
    payload = memoryview(payload)
    fixed = 4 * latent_dim + 4 * embed_dim
    rec0 = fixed + 4

    # Fast path: if the payload is exactly count zero-ref records and
    # every ref_len field under that assumption reads 0, induction on
    # record starts shows this is the unique valid parse.
    if len(payload) == count * rec0 and count > 0:
        grid = np.frombuffer(payload, dtype=np.uint8).reshape(count, rec0)
        ref_lens = grid[:, fixed:].copy().view("<u4")[:, 0]
        if not ref_lens.any():
            lat = grid[:, :4 * latent_dim].copy().view("<f4")
            emb = grid[:, 4 * latent_dim:fixed].copy().view("<f4")
            return (lat.astype(np.float64), emb.astype(np.float64), None, count)

    # no more than len(payload) // rec0 records can fit, whatever the header claims
    cap = min(count, len(payload) // rec0)
    lat = np.empty((cap, latent_dim), dtype=np.float64)
    emb = np.empty((cap, embed_dim), dtype=np.float64)
    refs: list[bytes] = []
    off = 0
    parsed = 0
    size = len(payload)
    for i in range(cap):
        if off + rec0 > size:
            break
        row = np.frombuffer(payload[off:off + fixed], dtype="<f4")
        lat[i] = row[:latent_dim]
        emb[i] = row[latent_dim:]
        (ref_len,) = REF_LEN.unpack(payload[off + fixed:off + rec0])
        off += rec0
        if off + ref_len > size:
            break
        refs.append(bytes(payload[off:off + ref_len]))
        off += ref_len
        parsed += 1
    lat = lat[:parsed]
    emb = emb[:parsed]
    return lat, emb, (None if not any(refs) else refs), parsed


_TABLE_FIELDS = ("index", "latent", "embedding", "ref")


def export_table(st: SampleStore, path: str | os.PathLike, fmt: str = "csv",
                 fields: Sequence[str] = ("latent", "embedding")) -> int:
    """Flatten a store into a plot-ready CSV or JSON Lines table.

    Floats are rendered with 9 significant digits.  Vector fields expand
    to one column per dimension in CSV; refs are base64 strings.
    Returns the number of data rows written.
    """
    import base64
    import csv

    from .jsonutil import format_float

    fields = list(fields)
    for f in fields:
        if f not in _TABLE_FIELDS:
            raise ValueError(f"unknown field {f!r}; choose from {_TABLE_FIELDS}")
    if not fields:
        raise ValueError("need at least one field")
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}; choose csv or jsonl")

    def row_values(i: int) -> dict:
        out = {}
        for f in fields:
            if f == "index":
                out[f] = i
            elif f == "latent":
                out[f] = st.latents[i]
            elif f == "embedding":
                out[f] = st.embeddings[i]
            else:
                out[f] = base64.b64encode(st.ref(i)).decode("ascii")
        return out

    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            for i in range(st.count):
                vals = row_values(i)
                parts = []
                for f in fields:
                    v = vals[f]
                    if isinstance(v, np.ndarray):
                        parts.append(f'"{f}": [' + ", ".join(format_float(x) for x in v) + "]")
                    elif isinstance(v, int):
                        parts.append(f'"{f}": {v}')
                    else:
                        parts.append(f'"{f}": "{v}"')
                fh.write("{" + ", ".join(parts) + "}\n")
        else:
            writer = csv.writer(fh)
            header: list[str] = []
            for f in fields:
                if f == "latent":
                    header.extend(f"latent_{d}" for d in range(st.latent_dim))
                elif f == "embedding":
                    header.extend(f"embedding_{d}" for d in range(st.embed_dim))
                else:
                    header.append(f)
            writer.writerow(header)
            for i in range(st.count):
                vals = row_values(i)
                row: list = []
                for f in fields:
                    v = vals[f]
                    if isinstance(v, np.ndarray):
                        row.extend(format_float(x) for x in v)
                    else:
                        row.append(v)
                writer.writerow(row)
    return st.count


def latents_disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    """True when no latent row of ``a`` equals (bitwise) a row of ``b``.

    Row hashes prefilter; only hash collisions pay for an exact compare.
    """
    from .rng import hash_latents
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return True
    ha = hash_latents(0, a)
    hb = hash_latents(0, b)
    shared = np.intersect1d(ha, hb)
    if shared.size == 0:
        return True
    rows_a = a[np.isin(ha, shared)]
    rows_b = b[np.isin(hb, shared)]
    seen = {r.tobytes() for r in rows_b}
    return not any(r.tobytes() in seen for r in rows_a)


def read_store(path: str | os.PathLike, recover: bool = False) -> SampleStore:
    """Load a store; strict on truncation unless ``recover`` is set."""
    with open(path, "rb") as fh:
        blob = fh.read()
    latent_dim, embed_dim, count, seed = parse_header(blob)
    lat, emb, refs, parsed = parse_records(memoryview(blob)[HEADER.size:],
                                           latent_dim, embed_dim, count)
    if parsed < count:
        if not recover:
            raise TruncatedStoreError(
                f"{path}: header promises {count} records, only {parsed} complete")
        warnings.warn(f"{path}: recovered {parsed} of {count} records",
                      RuntimeWarning, stacklevel=2)
        if refs is not None:
            refs = refs[:parsed]
    return SampleStore(latents=lat, embeddings=emb, seed=seed, refs=refs)
