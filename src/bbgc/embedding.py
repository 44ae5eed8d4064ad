"""Identity-embedding geometry.

Embeddings live on the unit hypersphere.  Distance is the angle between
two embeddings rescaled to [0, 1]; similarity rescales distance through
a truncated exponential so that pairs further apart than ``theta`` count
exactly zero.  The collapse score (MCCS) compresses the mean similarity
of an anchor against a comparison pool into [0, 1], with 0.5 hit when
the mean similarity is 1/e.

One batch kernel, :func:`scan`, reduces the anchor x pool pairs to both
neighbor counts and similarity sums.  The pool may come as an array or as
an iterator of row blocks in pool order, such as a store read block by
block, so a scan need not hold its pool.  It compares dots against cosine
thresholds instead of taking an arccos per pair: ``arccos`` is monotone
decreasing, so ``d <= r`` and ``dot >= cos(pi*r)`` pick the same pairs,
and only the surviving pairs need transcendentals.  A float32 GEMM over
fixed tiles screens the pairs first, keeping every pair within a proven
rounding margin of a threshold; each kept pair is then decided on its
float64 dot, one einsum over the pair's two rows.  A float32 operand,
such as the strided embedding view of a store, is the screen operand
itself; only the rows a float64 kernel reads are upcast, which is exact.
A float64 operand is cast to float32 one tile at a time, into a buffer
the scan reuses, so no copy of a whole operand is made.  Pool tiles are
the outer loop, so each is cast once; an anchor chunk is cast once per
tile, which costs a small fraction of that tile's GEMM.
Counts and sums therefore depend neither on how BLAS rounds, threads or
blocks a GEMM, nor on the tile or pool block sizes, nor on whether the
embeddings come as float32 or as their float64 upcast.  Each row's terms
are summed in column order by one ``np.sum``.  Asked to, the scan keeps
them with their pool columns, so a curve over one anchor's pool prefixes
needs no second pass over the pool.
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


# The scan's float32 screen runs over tiles of TILE_ROWS anchors x TILE_COLS
# pool rows (more anchor rows when the pool is narrower): an 8 MB block.
TILE_ROWS = 256
TILE_COLS = 8192
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
        r = row % self._chunk
        spans = [(t, c, e[r - 1] if r else 0, e[r]) for t, c, e in self._found[row // self._chunk]]
        return (np.concatenate([c[lo:hi] for _, c, lo, hi in spans]),
                np.concatenate([t[lo:hi] for t, _, lo, hi in spans]))


def _blocks(pool):
    """The pool's (rows, squared norms or None) blocks: an array is one."""
    if isinstance(pool, Iterator):
        for block in pool:
            yield block if isinstance(block, tuple) else (block, None)
    else:
        yield pool, None


def _operand(x) -> np.ndarray:
    """``x`` as float32 when it is, else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def scan(anchors: np.ndarray, pool, theta: float | None,
         radius: float | None, near: bool = False) -> ScanResult:
    """Per-anchor (neighbor counts, mean similarities) from one pass, and
    with ``near`` each anchor's near pool columns for :meth:`ScanResult.near`.

    ``pool`` is an array, or an iterator of row blocks in pool order, each
    an array or a pair (rows, their squared norms as :func:`row_dots` gives
    them); an array is one block, and a block wider than ``TILE_COLS`` rows
    is split into tiles.  Counts include pairs exactly at ``radius``; pairs
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
    # a streamed pool's size is not known up front; its blocks are TILE_COLS wide
    width = TILE_COLS if isinstance(pool, Iterator) else len(np.asarray(pool))
    chunk = max(TILE_ROWS, TILE_ROWS * TILE_COLS // max(width, 1))
    chunks = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
    anchor_sq = row_dots(anchors)
    amax = [math.sqrt(np.max(anchor_sq[lo:hi])) for lo, hi in chunks]
    # every tile's float32 block and its screen mask reuse one buffer each,
    # and a float64 operand is cast into one buffer an anchor chunk or a pool
    # tile at a time; a float32 one, strided view included, is used as it
    # is.  The buffers are sized once for the widest tile there can be, so
    # blocks of changing sizes make no new ones; pages never written are
    # never resident.
    k, cols = min(chunk, m), min(width, TILE_COLS)
    anchor_buf = None if anchors.dtype == np.float32 else np.empty((k, d), np.float32)
    block_buf, mask_buf = (np.empty(k * cols, dtype=t) for t in (np.float32, bool))
    tile_buf = None
    counts = None if cos_r is None else np.zeros(m, dtype=np.int64)
    found = [[] for _ in chunks]   # per chunk: each tile's (terms, columns, row ends)
    for rows, sq in _blocks(pool):
        rows = _operand(rows)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise DimensionMismatchError(f"shapes {anchors.shape} and {rows.shape}")
        starts = range(0, max(len(rows), n == 0), TILE_COLS)   # an empty pool still has one tile
        # the largest norm of each tile, for its screen; taken before the tile's
        # GEMM, so row_dots' float64 copies are not held beside the buffers
        pmax = [math.sqrt(np.max(row_dots(rows[c0:c0 + TILE_COLS]) if sq is None
                                 else sq[c0:c0 + TILE_COLS], initial=0.0)) for c0 in starts]
        for c0, p_max in zip(starts, pmax):
            tile = rows[c0:c0 + TILE_COLS]
            if tile.dtype != np.float32 and tile_buf is None:
                tile_buf = np.empty((cols, d), dtype=np.float32)
            tile32 = _float32(tile, tile_buf)
            for (lo, hi), a_max, tiles in zip(chunks, amax, found):
                size = (hi - lo) * len(tile)
                block = np.matmul(_float32(anchors[lo:hi], anchor_buf), tile32.T,
                                  out=block_buf[:size].reshape(hi - lo, len(tile)))
                # "not below" keeps a NaN dot, which the float64 dot then decides
                keep = np.less(block, _screen_limit(cos_min, d, a_max, p_max),
                               out=mask_buf[:size].reshape(block.shape))
                i, j = np.divmod(np.flatnonzero(np.logical_not(keep, out=keep)), len(tile))
                dots = _pair_dots(anchors[lo:hi], tile, i, j)
                if cos_r is not None:
                    counts[lo:hi] += np.bincount(i[dots >= cos_r], minlength=hi - lo)
                if theta is not None:
                    kept, terms = near_terms(dots, theta)
                    tiles.append((terms, j[kept] + (n + c0) if near else None,
                                  np.cumsum(np.bincount(i[kept], minlength=hi - lo))))
        n += len(rows)
    if theta is None:
        return ScanResult(counts, None)
    # each tile is row-major and tiles come in column order, so joining a
    # row's slice of every tile lists its terms in column order
    sums = np.empty(m)
    for (lo, hi), tiles in zip(chunks, found):
        spans = [(t, [0, *e.tolist()]) for t, _, e in tiles]
        sums[lo:hi] = [np.sum(np.concatenate([t[b[r]:b[r + 1]] for t, b in spans]))
                       for r in range(hi - lo)] if spans else 0.0   # a pool of no block
    # np.expm1(theta) can exceed math.expm1(theta) in the last bit, so a
    # fully collapsed anchor's mean could land at 1 + 2**-52
    return ScanResult(counts, np.minimum(sums / (math.expm1(theta) * n), 1.0), chunk,
                      found if near else None)


def neighbor_counts(anchors: np.ndarray, pool: np.ndarray, radius: float) -> np.ndarray:
    """Per-anchor count of pool embeddings within ``radius`` (inclusive)."""
    return scan(anchors, pool, None, radius)[0]


def mean_similarities(anchors: np.ndarray, pool: np.ndarray, theta: float) -> np.ndarray:
    """Per-anchor mean similarity against every pool embedding."""
    return scan(anchors, pool, theta, None)[1]
