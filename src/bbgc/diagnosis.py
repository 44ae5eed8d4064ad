"""Collapse diagnostics over anchor and pool collections.

Given an anchor collection A and a comparison pool C (disjoint by
construction, enforced by exact latent equality), this module computes
per-anchor collapse scores, their population mean and spread, the
worst-case dense mode (the anchor with the most pool neighbors inside a
radius), top-k dense-mode listings, and convergence curves over
deterministic shuffled prefixes.

Every function that scans a pool takes a store or a stream, reads it
once, and gives its verdicts after the last block.  A pool is an iterable
of store blocks with a known ``count``: a :class:`~bbgc.store.StoreStream`,
or a store, which is a pool of one block.  Each block is checked against
the anchors' latent hashes and scanned as it passes, and the report's
curves take their pool rows and near columns then.  Arguments are checked
first; then come a block's own fault (a short store, a bad row), an empty
or overlapping pool, and too few anchors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# neighbor_counts is bound for the bench alone: bench/smoke.py and
# tests/test_bench_names.py assert that its tracer wraps this binding
from .embedding import (
    check_theta,
    cosine_distance,
    mccs as mccs_of_mean,
    mean_similarities,
    neighbor_counts,  # noqa: F401
    scan,
)
from .errors import (
    EmptyCollectionError,
    OverlappingCollectionsError,
    SizesOutOfRangeError,
    TooFewAnchorsError,
)
from .rng import STREAM_SHUFFLE, CounterStream
from .store import SampleStore, StoreStream, hash_rows, latents_disjoint

# Anchor permutations start this deep into the shuffle stream so they
# never reuse the pool permutation's uniforms.
_ANCHOR_SHUFFLE_OFFSET = 1 << 33

CURVE_KINDS = ("mccs_single", "mu_mccs", "sigma_mccs")


@dataclass(frozen=True)
class MccsValue:
    value: float
    anchor_index: int
    mean_similarity: float
    n_samples: int


@dataclass(frozen=True)
class PopulationStats:
    mu: float
    sigma: float
    m: int
    values: np.ndarray = field(repr=False)             # (m,) per-anchor MCCS
    mean_similarities: np.ndarray = field(repr=False)  # (m,)
    n_samples: int = 0


@dataclass(frozen=True)
class DenseModeResult:
    anchor_index: int
    neighbor_count: int
    radius: float
    no_dense_mode: bool = False


@dataclass(frozen=True)
class ConvergenceCurve:
    statistic_kind: str
    points: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ConsistencyResult:
    # one (anchor set size, winning anchor index, winning embedding) per size
    points: tuple[tuple[int, int, np.ndarray], ...]
    statistic: float   # max pairwise distance among winning embeddings


def _blocks(anchors: SampleStore, pool: SampleStore | StoreStream, least: int = 1,
            on_block=None):
    """The pool's blocks as :func:`~bbgc.embedding.scan` takes them,
    (embeddings, squared norms), each tested against the anchors' latents,
    hashed once, and shown to ``on_block(block, start)``, whose first row is
    pool row ``start``, as it passes.  After the last block come the empty
    and overlap verdicts, then the check that there are ``least`` anchors."""
    hashed, shared, start = hash_rows(anchors.latents), False, 0
    for block in pool:
        shared = shared or not latents_disjoint(hashed, block.latents)
        if on_block is not None:
            on_block(block, start)
        start += block.count
        yield block.embeddings, block.sq_norms
        block = None   # else it lives on while the pool makes the next one
    if anchors.count == 0 or start == 0:
        raise EmptyCollectionError("anchors and pool must both be non-empty")
    if shared:
        raise OverlappingCollectionsError("anchor latents appear in the pool")
    if anchors.count < least:
        raise TooFewAnchorsError(f"need >= {least} anchors, got {anchors.count}")


def _gatherer(want: np.ndarray):
    """(on_block, rows): an ``on_block`` for :func:`_blocks` that gathers the
    pool rows at positions ``want``, in that order, into the one array that
    ``rows`` holds once the first block has passed."""
    rows = []

    def gather(block: SampleStore, start: int) -> None:
        if not rows:
            rows.append(np.empty((len(want), block.embed_dim), block.embeddings.dtype))
        at = np.flatnonzero((want >= start) & (want < start + block.count))
        rows[0][at] = block.embeddings[want[at] - start]

    return gather, rows


def check_disjoint(anchors: SampleStore, pool: SampleStore | StoreStream) -> None:
    """Both are non-empty and no anchor latent is a pool latent; the pool is read through."""
    for _ in _blocks(anchors, pool):
        pass


def expected_similarity(anchor_embedding: np.ndarray, pool_embeddings: np.ndarray,
                        theta: float) -> float:
    """Mean truncated-exponential similarity of one anchor over a pool."""
    pool_embeddings = np.asarray(pool_embeddings)   # float32 stays float32 for the scan
    if pool_embeddings.ndim != 2 or pool_embeddings.shape[0] == 0:
        raise EmptyCollectionError("pool must be a non-empty matrix")
    anchor = np.asarray(anchor_embedding, dtype=np.float64)
    return float(mean_similarities(anchor[None, :], pool_embeddings, theta)[0])


def mccs(anchor_embedding: np.ndarray, pool_embeddings: np.ndarray, theta: float,
         anchor_index: int = -1) -> MccsValue:
    """Collapse score of one anchor against a pool."""
    s = expected_similarity(anchor_embedding, pool_embeddings, theta)
    return MccsValue(value=mccs_of_mean(s), anchor_index=anchor_index,
                     mean_similarity=s, n_samples=int(np.asarray(pool_embeddings).shape[0]))


def _stats(sims: np.ndarray, n_samples: int) -> PopulationStats:
    """Per-anchor MCCS of mean similarities, with their mean and spread."""
    values = np.array([mccs_of_mean(s) for s in sims], dtype=np.float64)
    return PopulationStats(mu=float(np.mean(values)),
                           sigma=float(np.std(values, ddof=1)),
                           m=sims.shape[0], values=values,
                           mean_similarities=sims, n_samples=n_samples)


def population_stats(anchors: SampleStore, pool: SampleStore | StoreStream,
                     theta: float) -> PopulationStats:
    """Per-anchor MCCS plus population mean and unbiased standard deviation."""
    return _stats(scan(anchors.embeddings, _blocks(anchors, pool, 2), theta, None)[1],
                  pool.count)


def _count_order(counts: np.ndarray) -> np.ndarray:
    """Anchor indices by descending count, ties by ascending index."""
    return np.lexsort((np.arange(counts.shape[0]), -counts))


def _rank(counts: np.ndarray) -> np.ndarray:
    """:func:`_count_order`, warning when even the winner has no neighbor."""
    order = _count_order(counts)
    if counts[order[0]] == 0:
        warnings.warn("no anchor has any neighbor: no dense mode exists",
                      RuntimeWarning, stacklevel=3)
    return order


def find_worst_mode(anchors: SampleStore, pool: SampleStore | StoreStream,
                    radius: float) -> DenseModeResult:
    """The anchor with the most pool neighbors within ``radius``."""
    counts = scan(anchors.embeddings, _blocks(anchors, pool), None, radius)[0]
    winner = int(_rank(counts)[0])
    return DenseModeResult(anchor_index=winner, neighbor_count=int(counts[winner]),
                           radius=float(radius), no_dense_mode=bool(counts[winner] == 0))


def top_k_modes(anchors: SampleStore, pool: SampleStore | StoreStream, radius: float = 0.25,
                k: int = 24) -> list[DenseModeResult]:
    """The k densest anchors, descending count, index tie-break."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = scan(anchors.embeddings, _blocks(anchors, pool), None, radius)[0]
    order = _count_order(counts)[:min(k, anchors.count)]
    return [DenseModeResult(anchor_index=int(i), neighbor_count=int(counts[i]),
                            radius=float(radius),
                            no_dense_mode=bool(counts[i] == 0))
            for i in order]


def _shuffled(n: int, seed: int, offset: int = 0) -> np.ndarray:
    """Deterministic permutation of range(n) from the shuffle stream."""
    u = CounterStream(seed, STREAM_SHUFFLE).uniforms(offset, n)
    return np.argsort(u, kind="stable")


def _check_sizes(sizes, limit: int, what: str) -> list[int]:
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise SizesOutOfRangeError("sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SizesOutOfRangeError(f"sizes must be strictly increasing: {sizes}")
    if sizes[0] < 1 or sizes[-1] > limit:
        raise SizesOutOfRangeError(f"sizes must lie in [1, {limit}] ({what}), got {sizes}")
    return sizes


def convergence_curve(kind: str, pool: SampleStore | StoreStream, sizes, theta: float,
                      seed: int, anchor_embedding: np.ndarray | None = None,
                      anchors: SampleStore | None = None) -> ConvergenceCurve:
    """Statistic vs sample size over prefixes of a seed-shuffled ordering,
    from one read of the pool.

    ``mccs_single`` tracks one anchor against growing pool prefixes.
    ``mu_mccs``/``sigma_mccs`` grow the anchor set and the pool together
    (size s uses s anchors against s pool samples), so a single curve
    answers how many samples of each kind a stable estimate needs.
    """
    theta = check_theta(theta)
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    if kind == "mccs_single":
        if anchor_embedding is None:
            raise ValueError("mccs_single needs anchor_embedding")
        sizes = _check_sizes(sizes, pool.count, "pool")
        anchor = np.asarray(anchor_embedding)[None, :]
        blocks = ((block.embeddings, block.sq_norms) for block in pool)
        return _single_curve(scan(anchor, blocks, theta, None, near=True).near(0),
                             pool.count, sizes, theta, _shuffled(pool.count, seed))

    if anchors is None:
        raise ValueError(f"{kind} needs an anchors store")
    sizes = _check_sizes(sizes, min(pool.count, anchors.count), "pool and anchors")
    if sizes[0] < 2:
        raise SizesOutOfRangeError("population curves need sizes >= 2")
    gather, pool_emb = _gatherer(_shuffled(pool.count, seed)[:sizes[-1]])
    for _ in _blocks(anchors, pool, on_block=gather):
        pass
    mu, sigma = _population_curves(anchors, pool_emb[0], sizes, theta, seed)
    return mu if kind == "mu_mccs" else sigma


def _single_curve(near: tuple[np.ndarray, np.ndarray], n: int, sizes: list[int],
                  theta: float, order: np.ndarray) -> ConvergenceCurve:
    """mccs_single of one anchor over prefixes of the n pool rows taken in
    ``order``, from its near (columns, terms) as the scan keeps them: the
    scan's per-pair float64 kernel, so no BLAS rounds these dots."""
    cols, terms = near
    sims = np.zeros(n, dtype=np.float64)
    sims[cols] = terms / math.expm1(theta)
    csum = np.cumsum(sims[order])
    return ConvergenceCurve("mccs_single", tuple(
        (s, mccs_of_mean(min(1.0, csum[s - 1] / s))) for s in sizes))


def _population_curves(anchors: SampleStore, pool_emb: np.ndarray, sizes: list[int],
                       theta: float, seed: int) -> tuple[ConvergenceCurve, ConvergenceCurve]:
    """Both population curves from one prefix scan per size, over the pool
    rows at the first ``sizes[-1]`` shuffled positions, gathering only rows read."""
    top = sizes[-1]
    anchor_emb = anchors.embeddings[
        _shuffled(anchors.count, seed, offset=_ANCHOR_SHUFFLE_OFFSET)[:top]]
    stats = [(s, _stats(mean_similarities(anchor_emb[:s], pool_emb[:s], theta), s))
             for s in sizes]
    return (ConvergenceCurve("mu_mccs", tuple((s, st.mu) for s, st in stats)),
            ConvergenceCurve("sigma_mccs", tuple((s, st.sigma) for s, st in stats)))


def mode_consistency_check(anchors: SampleStore, pool: SampleStore | StoreStream, sizes,
                           radius: float) -> ConsistencyResult:
    """Worst-case mode found at several anchor-set sizes.

    The statistic is the largest pairwise distance among the winning
    embeddings: small means the same mode keeps winning as the anchor
    budget grows.
    """
    sizes = _check_sizes(sizes, anchors.count, "anchors")
    counts = scan(anchors.embeddings, _blocks(anchors, pool), None, radius)[0]
    points = []
    for s in sizes:
        order = _count_order(counts[:s])
        winner = int(order[0])
        points.append((s, winner, anchors.embeddings[winner].copy()))
    worst = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = max(worst, cosine_distance(points[i][2], points[j][2]))
    return ConsistencyResult(points=tuple(points), statistic=worst)


def build_report(anchors: SampleStore, pool: SampleStore | StoreStream, theta: float,
                 radius: float, k: int = 24, curve_sizes=None, seed: int = 0) -> dict:
    """Full diagnosis as a JSON-ready mapping with a fixed field order, from
    one scan of the pool."""
    n = pool.count
    # sizes are arguments, so their fault comes before a block is read
    sizes = _check_sizes(curve_sizes, n, "pool") if curve_sizes else None
    shuffled = _shuffled(n, seed) if sizes else None
    population_sizes = [s for s in sizes or () if 2 <= s <= anchors.count]
    # the population curves' pool rows, taken from each block as it passes
    gather, pool_emb = (_gatherer(shuffled[:population_sizes[-1]]) if population_sizes
                        else (None, None))
    # theta and radius are validated once, by the scan
    result = scan(anchors.embeddings, _blocks(anchors, pool, 2, gather),
                  theta, radius, near=bool(sizes))
    counts, sims = result
    stats = _stats(sims, n)
    order = _rank(counts)
    worst = int(order[0])
    top = order[:min(k, anchors.count)]
    curves = []
    if sizes:
        curves.append(_single_curve(result.near(worst), n, sizes, theta, shuffled))
        if population_sizes:
            curves.extend(_population_curves(anchors, pool_emb[0], population_sizes, theta, seed))
    return {
        "schema": 1,
        "theta": float(theta),
        "radius": float(radius),
        "m": anchors.count,
        "n": n,
        "mu_mccs": stats.mu,
        "sigma_mccs": stats.sigma,
        "worst_mode": {
            "anchor_index": worst,
            "neighbor_count": int(counts[worst]),
            "mccs": float(stats.values[worst]),
        },
        "top_k": [
            {"anchor_index": int(i), "neighbor_count": int(counts[i]),
             "mccs": float(stats.values[i])}
            for i in top
        ],
        "curves": [
            {"kind": c.statistic_kind, "points": [[int(s), float(v)] for s, v in c.points]}
            for c in curves
        ],
    }
