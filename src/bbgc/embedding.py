"""Identity-embedding geometry.

Embeddings live on the unit hypersphere.  Distance is the angle between
two embeddings rescaled to [0, 1]; similarity rescales distance through
a truncated exponential so that pairs further apart than ``theta`` count
exactly zero.  The collapse score (MCCS) compresses the mean similarity
of an anchor against a comparison pool into [0, 1], with 0.5 hit when
the mean similarity is 1/e.

One batch kernel, :func:`scan`, reduces a single anchor x pool dot block
per fixed-size anchor chunk to both neighbor counts and similarity sums.
It compares dots against precomputed cosine thresholds instead of taking
an arccos per pair: ``arccos`` is monotone decreasing, so ``d <= r`` and
``dot >= cos(pi*r)`` pick the same pairs, and only the surviving pairs
need transcendentals.  Sums run over whole rows inside each chunk.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, ZeroVectorError
from .parallel import ANCHOR_CHUNK, run_chunks

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


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise :func:`normalize` with the same error contract."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("cannot normalize non-finite rows")
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms < _NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e}")
    return m / norms[:, None]


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angular distance in [0, 1] between two unit vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
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
    """Similarities of ``distances`` times ``expm1(theta)``: the one copy
    of the formula, shared by :func:`similarity`, :func:`scan` and the
    single-anchor convergence curve."""
    return np.expm1(np.maximum(theta - distances, 0.0))


def similarity(distance, theta: float):
    """Truncated-exponential similarity of a distance (scalar or array).

    Equals 1 at distance 0, decays to exactly 0 at ``theta`` and stays 0
    beyond it.
    """
    theta = check_theta(theta)
    d = np.asarray(distance, dtype=np.float64)
    if np.any(d < 0) or np.any(d > 1) or not np.all(np.isfinite(d)):
        raise ValueError("distances must lie in [0, 1]")
    # dividing by the helper's own value at distance 0, not math.expm1(theta),
    # keeps that value exactly 1 where the two expm1s differ in the last bit
    s = _terms(d, theta) / _terms(0.0, theta)
    return float(s) if np.isscalar(distance) or d.ndim == 0 else s


def mccs(mean_similarity: float) -> float:
    """Collapse score of a mean similarity; 0 maps to 0, 1 maps to 1."""
    s = float(mean_similarity)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mean similarity must lie in [0, 1], got {s}")
    if s == 0.0:
        return 0.0
    return 1.0 / (1.0 - math.log(s))


def scan(anchors: np.ndarray, pool: np.ndarray, theta: float | None,
         radius: float | None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-anchor (neighbor counts, mean similarities) from one pass.

    Counts include pairs exactly at ``radius``; pairs at distance >= theta
    add exactly 0 to the mean.  A ``None`` threshold skips that half and
    returns ``None`` for it.
    """
    cos_r = None if radius is None else math.cos(math.pi * check_radius(radius))
    theta = None if theta is None else check_theta(theta)
    cos_t = None if theta is None else math.cos(math.pi * theta)
    anchors = np.asarray(anchors, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if anchors.ndim != 2 or pool.ndim != 2 or anchors.shape[1] != pool.shape[1]:
        raise DimensionMismatchError(f"shapes {anchors.shape} and {pool.shape}")

    def scan_chunk(lo: int, hi: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        dots = anchors[lo:hi] @ pool.T
        counts = sums = None
        if cos_r is not None:
            counts = np.count_nonzero(dots >= cos_r, axis=1).astype(np.int64)
        if cos_t is not None:
            # survivors come out in row-major order, so each row's terms form
            # one contiguous slice, summed by np.sum as a whole-row sum would be
            near = dots > cos_t
            terms = _terms(np.arccos(np.clip(dots[near], -1.0, 1.0)) / math.pi, theta)
            ends = np.cumsum(np.count_nonzero(near, axis=1))
            sums = np.array([np.sum(row) for row in np.split(terms, ends)[:-1]])
        return counts, sums

    # an empty anchor set still yields one (empty) part of each dtype
    parts = run_chunks(scan_chunk, anchors.shape[0], ANCHOR_CHUNK) or [scan_chunk(0, 0)]
    counts, sums = (None if p[0] is None else np.concatenate(p) for p in zip(*parts))
    if theta is None:
        return counts, None
    # np.expm1(theta) can exceed math.expm1(theta) in the last bit, so a
    # fully collapsed anchor's mean could land at 1 + 2**-52
    return counts, np.minimum(sums / (math.expm1(theta) * pool.shape[0]), 1.0)


def neighbor_counts(anchors: np.ndarray, pool: np.ndarray, radius: float) -> np.ndarray:
    """Per-anchor count of pool embeddings within ``radius`` (inclusive)."""
    return scan(anchors, pool, None, radius)[0]


def mean_similarities(anchors: np.ndarray, pool: np.ndarray, theta: float) -> np.ndarray:
    """Per-anchor mean similarity against every pool embedding."""
    return scan(anchors, pool, theta, None)[1]
