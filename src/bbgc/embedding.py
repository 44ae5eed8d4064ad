"""Identity-embedding geometry.

Embeddings live on the unit hypersphere.  Distance is the angle between
two embeddings rescaled to [0, 1]; similarity rescales distance through
a truncated exponential so that pairs further apart than ``theta`` count
exactly zero.  The collapse score (MCCS) compresses the mean similarity
of an anchor against a comparison pool into [0, 1], with 0.5 hit when
the mean similarity is 1/e.

One batch kernel, :func:`scan`, reduces the anchor x pool pairs to both
neighbor counts and similarity sums.  The pool may come as an array, or
as an iterator of (rows, squared norms or None) blocks in pool order, such
as a store read block by block, so a scan need not hold its pool.  It
compares dots against cosine thresholds instead of taking an arccos per
pair: ``arccos`` is monotone decreasing, so ``d <= r`` and ``dot >=
cos(pi*r)`` pick the same pairs, and only the surviving pairs need
transcendentals.  A float32 GEMM of an
anchor chunk against a pool tile screens the pairs first, keeping every
pair within a proven rounding margin of a threshold; each kept pair is
then decided on its float64 dot, one einsum over the pair's two rows.
The GEMM's float32 output, its mask and each float32 cast fit one screen
block of ``SCREEN_BYTES`` (1 MiB), so the screen's working memory does
not grow with the pool, the anchors or the pool's blocks.  A float32
operand, such as the strided embedding view of a store, is the screen
operand itself; only the rows a float64 kernel reads are upcast, which is
exact.  A float64 operand is cast to float32 one tile at a time, into a
buffer the scan reuses, so no copy of a whole operand is made.  Pool
tiles are the outer loop, so each is cast once; an anchor chunk is cast
once per tile, which costs a small fraction of that tile's GEMM.
Counts and sums therefore depend neither on how BLAS rounds, threads or
blocks a GEMM, nor on the tile, screen or pool block sizes, nor on whether
the embeddings come as float32 or as their float64 upcast.  Each row's
terms are summed in column order by one ``np.sum``: after the last block,
each GEMM's run of a row's terms moves to its place in that row, one
vectorised step per GEMM.  Asked to, the scan keeps them with their pool
columns, so a curve over one anchor's pool prefixes needs no second pass
over the pool.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, ZeroVectorError

_NORM_EPS = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector onto the unit sphere.

    Raises NonFiniteError on NaN/inf input and ZeroVectorError when the
    norm is too small to divide by.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("cannot normalize a non-finite vector")
    n = float(np.linalg.norm(v))
    if n < _NORM_EPS:
        raise ZeroVectorError(f"norm {n:.3e} below {_NORM_EPS:.0e}")
    return v / n


def normalize_rows(m: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Row-wise :func:`normalize` with the same error contract, into ``out``
    (which may be ``m``) with ``scratch`` for the squares, each allocated if not given."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(np.multiply(m, m, out=scratch), axis=1))
    # a row holding NaN or inf has a non-finite norm, so finite norms clear m
    if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(m)):
        raise NonFiniteError("cannot normalize non-finite rows")
    if np.any(norms < _NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e}")
    return np.divide(m, norms[:, None], out=out)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angular distance in [0, 1] between two unit vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError("distance operands must be finite")
    dot = float(np.dot(a, b))
    return math.acos(min(1.0, max(-1.0, dot))) / math.pi


def check_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 < theta <= 1.0) or not math.isfinite(theta):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    return theta


def check_radius(radius: float) -> float:
    radius = float(radius)
    if not (0.0 <= radius <= 1.0) or not math.isfinite(radius):
        raise ValueError(f"radius must lie in [0, 1], got {radius}")
    return radius


def _terms(distances, theta: float):
    """Similarities of ``distances`` times ``expm1(theta)``: the one formula."""
    return np.expm1(np.maximum(theta - distances, 0.0))


def similarity(distance, theta: float):
    """Truncated-exponential similarity of a distance (scalar or array).

    Equals 1 at distance 0, decays to exactly 0 at ``theta`` and stays 0
    beyond it.
    """
    theta = check_theta(theta)
    d = np.asarray(distance, dtype=np.float64)
    if not np.all((d >= 0.0) & (d <= 1.0)):   # NaN fails both comparisons
        raise ValueError("distances must lie in [0, 1]")
    # np.expm1(theta) is _terms(0.0, theta) bit for bit, so distance 0 maps to
    # exactly 1; math.expm1(theta) can differ from it in the last bit
    s = _terms(d, theta) / np.expm1(theta)
    return float(s) if d.ndim == 0 else s


def mccs(mean_similarity: float) -> float:
    """Collapse score of a mean similarity; 0 maps to 0, 1 maps to 1."""
    s = float(mean_similarity)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mean similarity must lie in [0, 1], got {s}")
    if s == 0.0:
        return 0.0
    return 1.0 / (1.0 - math.log(s))


# The scan's float32 screen runs GEMMs of at least TILE_ROWS anchors against
# as many pool rows as keep each GEMM's float32 output and each float32 cast
# within SCREEN_BYTES (see _screen_shape); a streamed pool comes in blocks of
# TILE_COLS rows.
TILE_ROWS = 256
TILE_COLS = 8192
SCREEN_BYTES = 1 << 20   # of a float32 block that the screen makes or casts into
_U32 = 2.0 ** -24   # float32 unit roundoff
BLOCK_BYTES = 1 << 25   # of a row block whose size sets no bit, as float64
PIECE_BYTES = 1 << 19   # of a piece that a kernel reuses or gathers, kept in cache


def block_rows(rows: int, width: int, piece: bool = False) -> int:
    """At most ``rows`` rows, and no more than fit one block (one piece with
    ``piece``) as float64 rows of ``width`` columns; at least one."""
    return max(1, min(rows, (PIECE_BYTES if piece else BLOCK_BYTES) // (8 * max(width, 1))))


def near_terms(dots: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The one step from float64 dots to similarities: the mask of ``dots``
    above cos(pi * theta), and :func:`_terms` of those dots, in order."""
    theta = check_theta(theta)
    near = dots > math.cos(math.pi * theta)
    return near, _terms(np.arccos(np.clip(dots[near], -1.0, 1.0)) / math.pi, theta)


def _screen_limit(cos_min: float, d: int, amax: float, pmax: float) -> np.float32:
    """A float32 threshold that every float32 dot of casts keeps when the
    float64 dot of the rows themselves is >= ``cos_min``; rows have dim ``d``
    and norms at most ``amax`` and ``pmax``.

    The float32 dot of the casts is within (gamma_d + 3u) * amax * pmax of
    the exact dot (Higham, *Accuracy and Stability*, section 3.1: gamma_d
    for the dot, 2u + u**2 for the casts, (1 + u)**2 on the cast norms),
    plus d * 2**-149 * (amax + pmax + 1) where a float32 value underflows.
    A fourth u covers the float64 dot, the norms and this arithmetic, each
    off by far less than u for d <= 2**20.  Outside that range, or where a
    float32 value could overflow (norms of 2**60 and up, or NaN), nothing
    is screened out.
    """
    if d > 1 << 20 or not (amax < 2.0 ** 60 and pmax < 2.0 ** 60):
        return np.float32(-np.inf)
    gamma = d * _U32 / (1.0 - d * _U32)
    g = (gamma + 4 * _U32) * amax * pmax + d * 2.0 ** -149 * (amax + pmax + 1.0)
    # one float32 step below the nearest float32 is below cos_min - g itself
    return np.nextafter(np.float32(cos_min - g), np.float32(-np.inf))


def _pair_dots(anchors: np.ndarray, pool: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Float64 dots of anchors[rows[k]] and pool[cols[k]], one einsum per
    piece of gathered pairs, upcast after the gather.

    einsum sums each pair of contiguous rows in a fixed order, so every
    dot's bits depend on the pair's two rows alone: not on BLAS, the tiles
    or which other pairs share the call.
    """
    out = np.empty(rows.size)
    step = block_rows(rows.size, 2 * pool.shape[1], piece=True)
    for k in range(0, rows.size, step):
        part = slice(k, k + step)
        out[part] = np.einsum("ij,ij->i", np.asarray(anchors[rows[part]], dtype=np.float64),
                              np.asarray(pool[cols[part]], dtype=np.float64))
    return out


def row_dots(m: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Float64 dot of each row of ``m`` with ``v``, or with itself when
    ``v`` is None: the per-pair kernel of :func:`_pair_dots`, taken over
    contiguous float64 copies of at most 8192 rows and one piece's bytes,
    which stay in cache.

    Each row's bits depend on that row alone, and a float32 ``m`` gets
    the bits of its (exact) float64 upcast without a full-size copy.
    """
    out = np.empty(len(m))
    step = block_rows(8192, m.shape[1], piece=True)
    for lo in range(0, len(m), step):
        block = np.ascontiguousarray(m[lo:lo + step], dtype=np.float64)
        out[lo:lo + step] = np.einsum("ij,ij->i", block, block) if v is None \
            else np.einsum("ij,j->i", block, v)
        del block   # else it lives on while the next one is made
    return out


def _float32(rows: np.ndarray, buf: np.ndarray | None) -> np.ndarray:
    """``rows`` as float32: themselves when they are, else cast into a
    prefix of ``buf``."""
    if rows.dtype == np.float32:
        return rows
    np.copyto(buf[:len(rows)], rows)
    return buf[:len(rows)]


class ScanResult(tuple):
    """(neighbor counts, mean similarities) from :func:`scan`, which also
    keeps each anchor's near pool columns for :meth:`near` when asked to."""

    def __new__(cls, counts, sims, chunk: int = 0, found: list | None = None):
        result = super().__new__(cls, (counts, sims))
        result._chunk, result._found = chunk, found
        return result

    def near(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, terms) of the pool rows within theta of anchor ``row``,
        in column order: :func:`near_terms` of the scan's own float64 dots."""
        cols, terms, ends = self._found[row // self._chunk]
        r = row % self._chunk
        lo = ends[r - 1] if r else 0
        return cols[lo:ends[r]], terms[lo:ends[r]]


def _screen_shape(m: int, d: int, width: int) -> tuple[int, int]:
    """(anchor rows, pool rows) of one screen GEMM of ``m`` anchors against
    a pool block of ``width`` rows, all of dim ``d``.  Anchor rows: as many
    as one screen block holds both as a GEMM output against min(width,
    TILE_ROWS) pool rows and as their own float32 cast, but at least
    TILE_ROWS, since a shorter GEMM runs slower per pair.  Pool rows: as many,
    up to ``width``, as keep the GEMM's output and their own float32 cast
    within one screen block."""
    screen = SCREEN_BYTES // 4   # float32 values
    k = max(1, min(m, max(TILE_ROWS, screen // max(d, min(width, TILE_ROWS), 1))))
    return k, max(1, min(width, screen // max(k, d)))


def _operand(x) -> np.ndarray:
    """``x`` as float32 when it is, else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def scan(anchors: np.ndarray, pool, theta: float | None,
         radius: float | None, near: bool = False) -> ScanResult:
    """Per-anchor (neighbor counts, mean similarities) from one pass, and
    with ``near`` each anchor's near pool columns for :meth:`ScanResult.near`.

    ``pool`` is an array, which is one block, or an iterator of blocks in
    pool order, each a pair (rows, their squared norms as :func:`row_dots`
    gives them, or None); each block is screened one tile of pool rows at
    a time.  Counts include pairs exactly at ``radius``; pairs
    at distance >= theta add exactly 0 to the mean.  A ``None`` threshold
    skips that half and returns ``None`` for it.  A float32 GEMM screens out
    pairs that a proven margin puts below both thresholds; every other pair
    is decided on its float64 dot from :func:`_pair_dots`.
    """
    cos_r = None if radius is None else math.cos(math.pi * check_radius(radius))
    theta = None if theta is None else check_theta(theta)
    cos_t = None if theta is None else math.cos(math.pi * theta)
    anchors = _operand(anchors)
    if anchors.ndim != 2:
        raise DimensionMismatchError(f"anchors of shape {anchors.shape}")
    (m, d), n = anchors.shape, 0
    cos_min = min(c for c in (cos_r, cos_t, math.inf) if c is not None)
    # an array is one block; a streamed pool's size is not known up front,
    # and its blocks are TILE_COLS wide
    blocks, width = ((pool, TILE_COLS) if isinstance(pool, Iterator)
                     else ([(pool, None)], len(pool)))
    k, cols = _screen_shape(m, d, width)
    chunks = [(lo, min(lo + k, m)) for lo in range(0, m, k)]
    anchor_sq = row_dots(anchors)
    amax = [math.sqrt(np.max(anchor_sq[lo:hi])) for lo, hi in chunks]
    # the GEMM output and its mask reuse one buffer each, and a float64
    # operand is cast into one buffer an anchor chunk or a pool tile at a
    # time; a float32 one, strided view included, is used as it is.  The
    # buffers are sized once, so blocks of changing sizes make no new ones
    anchor_buf = None if anchors.dtype == np.float32 else np.empty((k, d), np.float32)
    block_buf, mask_buf = (np.empty(k * cols, dtype=t) for t in (np.float32, bool))
    tile_buf = None
    counts = None if cos_r is None else np.zeros(m, dtype=np.int64)
    found = [[] for _ in chunks]   # per chunk: each GEMM's kept (rows, terms, columns)
    row_type = np.min_scalar_type(k - 1)   # of a row within its chunk
    for rows, sq in blocks:
        rows = _operand(rows)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise DimensionMismatchError(f"shapes {anchors.shape} and {rows.shape}")
        for c0 in range(0, len(rows), cols):
            tile = rows[c0:c0 + cols]
            # the largest norm of the tile, for its screen
            p_max = math.sqrt(np.max(row_dots(tile) if sq is None else sq[c0:c0 + cols]))
            if tile.dtype != np.float32 and tile_buf is None:
                tile_buf = np.empty((cols, d), dtype=np.float32)
            tile32 = _float32(tile, tile_buf)
            for (lo, hi), a_max, pieces in zip(chunks, amax, found):
                size = (hi - lo) * len(tile)
                block = np.matmul(_float32(anchors[lo:hi], anchor_buf), tile32.T,
                                  out=block_buf[:size].reshape(hi - lo, len(tile)))
                limit = _screen_limit(cos_min, d, a_max, p_max)
                keep = np.greater_equal(block, limit, out=mask_buf[:size].reshape(block.shape))
                if limit == -np.inf:   # so a NaN dot is kept too, for its float64 dot
                    keep.fill(True)
                i, j = np.divmod(np.flatnonzero(keep), len(tile))
                if not i.size:
                    continue
                dots = _pair_dots(anchors[lo:hi], tile, i, j)
                if cos_r is not None:
                    counts[lo:hi] += np.bincount(i[dots >= cos_r], minlength=hi - lo)
                if theta is not None:
                    kept, terms = near_terms(dots, theta)
                    pieces.append((i[kept].astype(row_type), terms,
                                   j[kept] + (n + c0) if near else None))
        n += len(rows)
        rows = sq = tile = tile32 = None   # else the block lives on while the next is made
    if theta is None:
        return ScanResult(counts, None)
    # a chunk's GEMMs come in column order and each lists its pairs row by
    # row, so moving each GEMM's run of a row to that row's next free place
    # lists each row's terms in column order
    sums = np.zeros(m)
    for c, (lo, hi) in enumerate(chunks):
        pieces, found[c] = found[c], None
        per_row = np.zeros(hi - lo, np.int64)
        for rows, _, _ in pieces:
            per_row += np.bincount(rows, minlength=hi - lo)
        ends = np.cumsum(per_row)
        at = ends - per_row   # each row's next free place
        terms = np.empty(ends[-1])
        columns = np.empty(ends[-1], np.intp) if near else None
        for x, (rows, part, part_cols) in enumerate(pieces):
            pieces[x] = None   # freed once it is placed
            runs = np.bincount(rows, minlength=hi - lo)
            to = (at - (np.cumsum(runs) - runs))[rows] + np.arange(len(part))
            terms[to] = part
            if near:
                columns[to] = part_cols
            at += runs
        for r in np.flatnonzero(per_row):
            sums[lo + r] = np.sum(terms[ends[r] - per_row[r]:ends[r]])
        found[c] = (columns, terms, ends)
    # np.expm1(theta) can exceed math.expm1(theta) in the last bit, so a
    # fully collapsed anchor's mean could land at 1 + 2**-52
    return ScanResult(counts, np.minimum(sums / (math.expm1(theta) * n), 1.0), k,
                      found if near else None)


def neighbor_counts(anchors: np.ndarray, pool: np.ndarray, radius: float) -> np.ndarray:
    """Per-anchor count of pool embeddings within ``radius`` (inclusive)."""
    return scan(anchors, pool, None, radius)[0]


def mean_similarities(anchors: np.ndarray, pool: np.ndarray, theta: float) -> np.ndarray:
    """Per-anchor mean similarity against every pool embedding."""
    return scan(anchors, pool, theta, None)[1]
