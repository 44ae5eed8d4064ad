"""Binary sample stores.

A store is one file holding (latent, embedding, ref) records plus a
fixed 32-byte header.  All scalars are little-endian; vectors are
float32 on disk.  A reader returns latents as float64 and embeddings as
a read-only float32 view of the file or frame bytes, with no copy.
Layout:

    header:  magic "BBGC" | u32 version | u32 latent_dim
             | u32 embed_dim | u64 count | u64 seed
    record:  record_dtype(latent_dim, embed_dim), the packed numpy structure
             latent <f4[latent_dim] | embedding <f4[embed_dim] | ref_len <u4,
             then ref_len ref bytes

The wire frames of :mod:`bbgc.source` are the same header and records
with one dim set to 0, so this module is the one codec for both, and
:func:`frame_blocks` the one reader of files, pipes, stdout and HTTP bodies.
Its one pass over a body finds the complete records and parses them, a
block of records at a time: :func:`read_frame` and :func:`read_store` take
every record in one block, and :func:`stream_store` hands a store on block
by block as it reads it, so a scan of the store holds one block of it.

Writers stage into ``<path>.tmp`` and rename at close, so a store path
either holds a complete previous file or a complete new one.  A store
that ends before its header's count of records is damaged, and reading
it raises ``TruncatedStoreError``.
"""

from __future__ import annotations

import os
import stat
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import _operand, block_rows
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    NonFiniteError,
    StoreFormatError,
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
    embeddings: np.ndarray   # (count, embed_dim) float32 as read; float32 or float64 if built
    seed: int
    refs: list[bytes] | None = None   # None means every ref is empty
    # the embeddings' squared norms (embedding.row_dots), where a reader took them
    sq_norms: np.ndarray | None = None

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

    def __iter__(self) -> Iterator[SampleStore]:
        """A store is a pool of one block: itself (see :class:`StoreStream`)."""
        yield self


def _check_batch(latents: np.ndarray, embeddings: np.ndarray,
                 latent_dim: int, embed_dim: int) -> tuple[np.ndarray, np.ndarray]:
    latents = np.asarray(latents, dtype=np.float64)
    embeddings = _operand(embeddings)
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


def record_dtype(latent_dim: int, embed_dim: int) -> np.dtype:
    """The fixed part of one record, with no padding; its ref bytes follow."""
    return np.dtype([("latent", "<f4", (latent_dim,)), ("embedding", "<f4", (embed_dim,)),
                     ("ref_len", "<u4")])


def check_record_size(latent_dim: int, embed_dim: int) -> None:
    """Refuse dims whose record's fixed part, ``4·(latent_dim + embed_dim + 1)``
    bytes, reaches 2**31: numpy caps a dtype there and wraps past."""
    if 4 * (latent_dim + embed_dim + 1) >= 2 ** 31:
        raise StoreFormatError(f"a {latent_dim}x{embed_dim} record exceeds 2**31 - 1 bytes")


def pack_header(latent_dim: int, embed_dim: int, count: int, seed: int = 0) -> bytes:
    return HEADER.pack(MAGIC, VERSION, latent_dim, embed_dim, count, seed)


def packed_records(latents: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """The records of rows of (latents, embeddings) with empty refs, vectors
    cast to float32, as one packed array whose buffer holds their bytes: a
    file's ``write`` takes it with no copy."""
    rec = np.zeros(len(latents), record_dtype(np.shape(latents)[1], np.shape(embeddings)[1]))
    rec["latent"], rec["embedding"] = latents, embeddings
    return rec


def pack_records(latents: np.ndarray, embeddings: np.ndarray,
                 refs: Sequence[bytes] | None = None) -> bytes:
    """The records of rows of (latents, embeddings, refs), vectors cast to
    float32.  ``refs`` None means every ref is empty."""
    rec = packed_records(latents, embeddings)
    if refs is None:
        return rec.tobytes()
    rec["ref_len"] = [len(r) for r in refs]
    return b"".join(row.tobytes() + ref for row, ref in zip(rec, refs))


_RUN_PROBE = 16   # empty-ref records in a row before the scan probes ahead with numpy


def _segments(payload: np.ndarray, rec: np.dtype, count: int, off: int):
    """(offset, records, ref bytes) of the complete records in the bytes of
    ``payload`` from ``off`` on, at most ``count``, in order: runs of
    empty-ref records (ref bytes 0) and single records that carry a ref.

    The complete fixed-stride slots at a run's start whose ref_len fields
    read 0 are empty-ref records (induction on record starts), so a run is
    read from the dtype in probes that double while they find no ref.  A
    record with a ref, and the next ``_RUN_PROBE`` after it, take the scalar
    path, so records dense with refs cost no numpy call each.
    """
    ref_at = rec.fields["ref_len"][1]
    size = len(payload)
    empties = probe = _RUN_PROBE   # the head is probed at once
    while count > 0 and off + rec.itemsize <= size:
        if empties >= _RUN_PROBE:
            run = min(count, (size - off) // rec.itemsize, probe)
            with_ref = np.flatnonzero(np.frombuffer(payload, rec, run, off)["ref_len"])
            n, ref_len = (int(with_ref[0]) if with_ref.size else run), 0
            empties, probe = (0, _RUN_PROBE) if with_ref.size else (empties, 2 * probe)
        else:
            n, ref_len = 1, REF_LEN.unpack_from(payload, off + ref_at)[0]
            if off + rec.itemsize + ref_len > size:
                return
            empties = 0 if ref_len else empties + 1
        if n:
            yield off, n, ref_len
        off += n * rec.itemsize + ref_len
        count -= n


_WRITE_PIECE = 1 << 20   # bytes of empty-ref records packed per write, at most


class StoreWriter:
    """Streaming store writer with atomic replace on close."""

    def __init__(self, path: str | os.PathLike, latent_dim: int, embed_dim: int, seed: int):
        if latent_dim < 1 or embed_dim < 1:
            raise ValueError(f"dims must be >= 1, got {latent_dim}, {embed_dim}")
        check_record_size(latent_dim, embed_dim)
        self.path = os.fspath(path)
        self.latent_dim = int(latent_dim)
        self.embed_dim = int(embed_dim)
        self.seed = int(seed)
        self.count = 0
        self._tmp = self.path + ".tmp"
        self._fh = open(self._tmp, "wb")
        self._fh.write(pack_header(self.latent_dim, self.embed_dim, 0, self.seed))

    def append(self, latents: np.ndarray, embeddings: np.ndarray,
               refs: list[bytes] | None = None) -> None:
        latents, embeddings = _check_batch(latents, embeddings,
                                           self.latent_dim, self.embed_dim)
        n = latents.shape[0]
        if refs is not None and len(refs) != n:
            raise DimensionMismatchError(f"{len(refs)} refs for {n} records")
        if refs is None:
            step = max(1, _WRITE_PIECE // record_dtype(self.latent_dim, self.embed_dim).itemsize)
            for lo in range(0, n, step):
                self._fh.write(packed_records(latents[lo:lo + step], embeddings[lo:lo + step]))
        else:
            self._fh.write(pack_records(latents, embeddings, refs))
        self.count += n

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.seek(0)
        self._fh.write(pack_header(self.latent_dim, self.embed_dim, self.count, self.seed))
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
    embeddings = _operand(embeddings)
    if latents.ndim != 2 or embeddings.ndim != 2:
        raise DimensionMismatchError("latents and embeddings must be 2-D")
    with StoreWriter(path, latents.shape[1], embeddings.shape[1], seed) as w:
        w.append(latents, embeddings, refs)


_TABLE_FIELDS = ("index", "latent", "embedding", "ref")
_HEADER_PIECE = 4096   # CSV column names per write


def check_fields(fields: Sequence[str]) -> list[str]:
    """``fields`` as a list: at least one column, each of ``_TABLE_FIELDS`` once."""
    for i, f in enumerate(fields):
        if f not in _TABLE_FIELDS:
            raise ValueError(f"unknown field {f!r}; choose from {_TABLE_FIELDS}")
        if f in fields[:i]:
            raise ValueError(f"field {f!r} listed twice")
    if not fields:
        raise ValueError("need at least one field")
    return list(fields)


def export_table(st: SampleStore, path: str | os.PathLike, fmt: str = "csv",
                 fields: Sequence[str] = ("latent", "embedding")) -> int:
    """Flatten a store into a plot-ready CSV or JSON Lines table.

    Floats are rendered with 9 significant digits.  Vector fields expand
    to one column per dimension in CSV; refs are base64 strings.  A
    non-finite value in an exported vector field raises ``NonFiniteError``
    before the output is opened.  Returns the number of data rows written.
    """
    import base64
    import csv

    from .jsonutil import format_float

    fields = check_fields(fields)
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}; choose csv or jsonl")
    for f, vectors in (("latent", st.latents), ("embedding", st.embeddings)):
        if f in fields and not np.all(np.isfinite(vectors)):
            row = int(np.argmin(np.isfinite(vectors).all(axis=1)))
            raise NonFiniteError(f"row {row} has a non-finite {f}; a table holds finite values")

    def cells(f: str, i: int) -> list[str]:
        """Field ``f`` of row ``i`` as table cells: one per vector dimension."""
        if f == "index":
            return [str(i)]
        if f == "ref":
            return [base64.b64encode(st.ref(i)).decode("ascii")]
        return [format_float(x) for x in (st.latents if f == "latent" else st.embeddings)[i]]

    def header_pieces():
        for f in fields:
            dim = {"latent": st.latent_dim, "embedding": st.embed_dim}.get(f)
            if dim is None:
                yield f
            for lo in range(0, dim or 0, _HEADER_PIECE):
                yield ",".join(f"{f}_{d}" for d in range(lo, min(dim, lo + _HEADER_PIECE)))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            wrap = {"index": "{}", "ref": '"{}"'}   # else a vector: "[{}]"
            for i in range(st.count):
                parts = (f'"{f}": ' + wrap.get(f, "[{}]").format(", ".join(cells(f, i)))
                         for f in fields)
                fh.write("{" + ", ".join(parts) + "}\n")
        else:
            writer = csv.writer(fh)
            # column names need no quoting, so the header goes out in bounded
            # pieces, ended as the csv writer ends a row
            for i, piece in enumerate(header_pieces()):
                fh.write(("," if i else "") + piece)
            fh.write(writer.dialect.lineterminator)
            for i in range(st.count):
                writer.writerow([cell for f in fields for cell in cells(f, i)])
    return st.count


class HashedLatents(NamedTuple):
    """Latent rows as float64 with their row hashes in ascending order, and
    the row of each hash, taken once where one set is tested against many."""

    rows: np.ndarray
    hashes: np.ndarray
    order: np.ndarray


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """Each float64 row's 64-bit hash: the sum mod 2**64 of ``splitmix64``
    of each value's bits xored with a key of its column.

    The pass runs over contiguous pieces of rows, and takes a strided view
    as it is.  A piece is an eighth of ``embedding.PIECE_BYTES``: a pool
    block is tested while the scan's buffers and the block's reader are
    alive, and its two uint64 temporaries would otherwise raise that peak.
    """
    from .rng import splitmix64
    keys = splitmix64(np.arange(rows.shape[1], dtype=np.uint64))
    hashes = np.empty(len(rows), np.uint64)
    step = block_rows(len(rows), 8 * rows.shape[1], piece=True)
    for lo in range(0, len(rows), step):
        mixed = np.bitwise_xor(np.ascontiguousarray(rows[lo:lo + step]).view(np.uint64), keys)
        np.sum(splitmix64(mixed, mixed), axis=1, out=hashes[lo:lo + step])
    return hashes


def hash_rows(latents: np.ndarray) -> HashedLatents:
    """``latents`` hashed and sorted by hash once, for :func:`latents_disjoint`."""
    rows = np.asarray(latents, dtype=np.float64)
    hashes = _row_hashes(rows)
    order = np.argsort(hashes)
    return HashedLatents(rows, hashes[order], order)


def latents_disjoint(a: np.ndarray | HashedLatents, b: np.ndarray) -> bool:
    """True when no latent row of ``a`` equals (bitwise, as float64) a row
    of ``b``; ``a`` may come from :func:`hash_rows`, to test many ``b``
    against it.

    Row hashes prefilter: each of ``b``'s is looked up among ``a``'s sorted
    ones, and only hash collisions pay for an exact compare.
    """
    a = a if isinstance(a, HashedLatents) else hash_rows(a)
    b = np.asarray(b, dtype=np.float64)
    if a.rows.size == 0 or b.size == 0:
        return True
    hashes = _row_hashes(b)
    hit = a.hashes[np.minimum(np.searchsorted(a.hashes, hashes), len(a.hashes) - 1)] == hashes
    if not hit.any():
        return True
    seen = {r.tobytes() for r in b[hit]}
    return not any(r.tobytes() in seen
                   for r in a.rows[a.order[np.isin(a.hashes, hashes[hit])]])


_READ_PIECE = 1 << 20   # bytes per read, at most


def frame_blocks(readinto, check, truncated, size: int | None = None,
                 rows: int | None = None):
    """The next store or frame that ``readinto`` yields, as a generator: first
    its header (latent_dim, embed_dim, count, seed), then (latents,
    embeddings, refs) of each ``rows`` records in order, the last block
    shorter.  With ``rows`` None every record is in one block, which comes
    even when the count is 0.  It yields nothing if the stream ends first.

    ``readinto(view)`` fills a prefix of ``view`` and returns its length, 0 at
    the end, as a file's or ``HTTPResponse``'s method or ``os.readv`` does.
    ``check(latent_dim, embed_dim, count)`` sees a header that passed the
    format's checks before any body byte is read.  Each read asks for at most
    ``_READ_PIECE`` bytes that the block's count and the refs seen so far
    prove the frame still holds, so the reader stops at the last record, and
    the buffer holds at most one piece more than was received, so a lying
    header sets no allocation.  A stream that ends inside the frame raises
    ``truncated(got)``: ``got`` is None in the header, else (records, count).
    ``size`` is the stream's length where it is known, as a regular file's
    is: the buffer is then sized once after the header, to at most ``size``
    and the first block's records, and grows by pieces only past that (refs,
    or a growing file).

    Each block is walked once, as its records complete.  Where ref bytes lie
    behind a segment of records, its fixed parts move left over them inside
    the buffer, so the records end up packed.  Latents are float64 copies;
    embeddings are the read-only float32 ``embedding`` field, a strided view
    of the one buffer that every block is read into, so a block's embeddings
    hold until the next block is asked for.  ``refs`` is None when every ref
    of the block is empty.
    """
    buf = np.empty(HEADER.size, np.uint8)   # ndarray.resize grows it by realloc
    got = 0
    while got < HEADER.size:
        n = readinto(memoryview(buf)[got:])
        if not n:
            if got:
                raise truncated(None)
            return
        got += n
    magic, version, latent_dim, embed_dim, count, seed = HEADER.unpack(buf)
    if magic != MAGIC:
        raise BadMagicError(f"magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(f"version {version}, expected {VERSION}")
    check_record_size(latent_dim, embed_dim)
    check(latent_dim, embed_dim, count)
    rec = record_dtype(latent_dim, embed_dim)
    yield latent_dim, embed_dim, count, seed
    per = rows or count
    if size is not None:   # those bytes exist, so they set the allocation
        held = np.empty(max(got, min(size, HEADER.size + min(count, per) * rec.itemsize)), np.uint8)
        held[:got] = buf
        buf = held
    for done in range(0, count, per) if rows else [0]:   # done: records of earlier blocks
        end = min(count, done + per)
        # the header stays in front of each block's records
        got = off = packed = HEADER.size   # bytes held; the first not yet walked; the packed end
        walked, refs = done, None   # records walked; their refs, once one is not empty
        need = off + (end - walked) * rec.itemsize
        while walked < end:
            ask = min(need - got, _READ_PIECE)
            if got + ask > len(buf):
                grown = min(need, got + _READ_PIECE)
                if done:   # a yielded block may still view buf, so it keeps the old one
                    buf = np.concatenate([buf[:got], np.empty(grown - got, np.uint8)])
                else:   # no view of buf is alive here
                    buf.resize(grown, refcheck=False)
            n = readinto(memoryview(buf)[got:got + ask])
            if not n:
                raise truncated((walked, count))
            got += n
            # each move goes left, onto bytes the segments have passed
            for at, k, ref_len in _segments(buf[:got], rec, end - walked, off):
                stop = at + k * rec.itemsize
                if packed != at:
                    buf[packed:packed + stop - at] = buf[at:stop]
                if ref_len:
                    refs = refs or [b""] * (walked - done)
                    refs.append(buf[stop:stop + ref_len].tobytes())
                elif refs is not None:
                    refs.extend([b""] * k)
                packed, off, walked = packed + stop - at, stop + ref_len, walked + k
            need = off + (end - walked) * rec.itemsize   # off: the first record not yet complete
            if got >= off + rec.itemsize:   # its ref_len is in
                need += int(np.frombuffer(buf, rec, 1, off)["ref_len"][0])
        records = np.frombuffer(memoryview(buf).toreadonly(), rec, walked - done, HEADER.size)
        yield records["latent"].astype(np.float64), records["embedding"], refs


def read_frame(readinto, check, truncated, size: int | None = None):
    """(latent_dim, embed_dim, latents, embeddings, refs, seed) of the next
    store or frame that ``readinto`` yields, or None if the stream ends first:
    :func:`frame_blocks` with every record in one block."""
    blocks = frame_blocks(readinto, check, truncated, size)
    head = next(blocks, None)
    if head is None:
        return None
    (latents, embeddings, refs), = blocks
    return head[0], head[1], latents, embeddings, refs, head[3]


@dataclass
class StoreStream:
    """A store whose header is read and whose records are read as the stream
    is iterated, one :class:`SampleStore` block at a time: the lazy form of a
    pool, of which a whole store is the one-block form."""

    count: int
    blocks: Iterator[SampleStore]

    def __iter__(self) -> Iterator[SampleStore]:
        return self.blocks


def stream_store(path: str | os.PathLike, rows: int | None = None) -> StoreStream:
    """A store read in blocks of ``rows`` records (one block when None), each
    read as it is asked for, into one buffer (see :func:`frame_blocks`); the
    header is read and checked here.  A store that ends before its header's
    count raises ``TruncatedStoreError`` at the block it cuts."""
    def check(latent_dim: int, embed_dim: int, _count: int) -> None:
        if latent_dim < 1 or embed_dim < 1:   # a wire frame's dims, not a store's
            raise StoreFormatError(
                f"{path}: store dims {latent_dim}x{embed_dim}, each must be >= 1")

    def truncated(got: tuple[int, int] | None) -> TruncatedStoreError:
        return TruncatedStoreError(f"{path}: " + (
            f"header needs {HEADER.size} bytes" if got is None
            else "header promises %d records, only %d complete" % (got[1], got[0])))

    def blocks():
        with open(path, "rb", buffering=0) as fh:   # no read-ahead past the last record
            st = os.fstat(fh.fileno())
            frame = frame_blocks(fh.readinto, check, truncated,
                                 st.st_size if stat.S_ISREG(st.st_mode) else None, rows)
            head = next(frame, None)
            if head is None:
                raise truncated(None)
            yield head[2]
            for latents, embeddings, refs in frame:
                yield SampleStore(latents, embeddings, seed=head[3], refs=refs)
                latents = embeddings = refs = None   # else they live on while the next is read

    stream = blocks()
    return StoreStream(count=next(stream), blocks=stream)


def read_store(path: str | os.PathLike) -> SampleStore:
    """Load a store: every record its header counts, or ``TruncatedStoreError``."""
    (store,) = stream_store(path)
    return store
