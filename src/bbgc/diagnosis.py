"""Collapse diagnostics over anchor and pool collections.

Given an anchor collection A and a comparison pool C (disjoint by
construction, enforced by exact latent equality), this module computes
per-anchor collapse scores, their population mean and spread, the
worst-case dense mode (the anchor with the most pool neighbors inside a
radius), top-k dense-mode listings, and convergence curves over
deterministic shuffled prefixes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .embedding import (
    check_radius,
    check_theta,
    cosine_distance,
    mccs as mccs_of_mean,
    mean_similarities,
    neighbor_counts,
    scan,
)
from .errors import (
    EmptyCollectionError,
    OverlappingCollectionsError,
    SizesOutOfRangeError,
    TooFewAnchorsError,
)
from .rng import STREAM_SHUFFLE, CounterStream
from .store import SampleStore, latents_disjoint

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

    def anchor(self, i: int) -> MccsValue:
        return MccsValue(value=float(self.values[i]), anchor_index=i,
                         mean_similarity=float(self.mean_similarities[i]),
                         n_samples=self.n_samples)


@dataclass(frozen=True)
class DenseModeResult:
    anchor_index: int
    neighbor_count: int
    radius: float
    runner_ups: tuple[tuple[int, int], ...] = ()
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


def check_disjoint(anchors: SampleStore, pool: SampleStore) -> None:
    if anchors.count == 0 or pool.count == 0:
        raise EmptyCollectionError("anchors and pool must both be non-empty")
    if not latents_disjoint(anchors.latents, pool.latents):
        raise OverlappingCollectionsError("anchor latents appear in the pool")


def expected_similarity(anchor_embedding: np.ndarray, pool_embeddings: np.ndarray,
                        theta: float) -> float:
    """Mean truncated-exponential similarity of one anchor over a pool."""
    pool_embeddings = np.asarray(pool_embeddings, dtype=np.float64)
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


def _check_population(anchors: SampleStore, pool: SampleStore) -> None:
    check_disjoint(anchors, pool)
    if anchors.count < 2:
        raise TooFewAnchorsError(f"need >= 2 anchors, got {anchors.count}")


def _stats(sims: np.ndarray, n_samples: int) -> PopulationStats:
    """Per-anchor MCCS of mean similarities, with their mean and spread."""
    values = np.array([mccs_of_mean(s) for s in sims], dtype=np.float64)
    return PopulationStats(mu=float(np.mean(values)),
                           sigma=float(np.std(values, ddof=1)),
                           m=sims.shape[0], values=values,
                           mean_similarities=sims, n_samples=n_samples)


def population_stats(anchors: SampleStore, pool: SampleStore, theta: float) -> PopulationStats:
    """Per-anchor MCCS plus population mean and unbiased standard deviation."""
    _check_population(anchors, pool)
    return _stats(mean_similarities(anchors.embeddings, pool.embeddings, theta), pool.count)


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


def find_worst_mode(anchors: SampleStore, pool: SampleStore, radius: float,
                    runner_ups: int = 9) -> DenseModeResult:
    """The anchor with the most pool neighbors within ``radius``."""
    check_disjoint(anchors, pool)
    counts = neighbor_counts(anchors.embeddings, pool.embeddings, radius)
    order = _rank(counts)
    winner = int(order[0])
    ups = tuple((int(i), int(counts[i])) for i in order[1:max(1, runner_ups + 1)][:runner_ups])
    return DenseModeResult(anchor_index=winner, neighbor_count=int(counts[winner]),
                           radius=float(radius), runner_ups=ups,
                           no_dense_mode=bool(counts[winner] == 0))


def top_k_modes(anchors: SampleStore, pool: SampleStore, radius: float = 0.25,
                k: int = 24) -> list[DenseModeResult]:
    """The k densest anchors, descending count, index tie-break."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_disjoint(anchors, pool)
    counts = neighbor_counts(anchors.embeddings, pool.embeddings, radius)
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


def convergence_curve(kind: str, pool: SampleStore, sizes, theta: float, seed: int,
                      anchor_embedding: np.ndarray | None = None,
                      anchors: SampleStore | None = None) -> ConvergenceCurve:
    """Statistic vs sample size over prefixes of a seed-shuffled ordering.

    ``mccs_single`` tracks one anchor against growing pool prefixes.
    ``mu_mccs``/``sigma_mccs`` grow the anchor set and the pool together
    (size s uses s anchors against s pool samples), so a single curve
    answers how many samples of each kind a stable estimate needs.
    """
    check_theta(theta)
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    if kind == "mccs_single":
        if anchor_embedding is None:
            raise ValueError("mccs_single needs anchor_embedding")
        sizes = _check_sizes(sizes, pool.count, "pool")
        shuffled_pool = pool.embeddings[_shuffled(pool.count, seed)]
        dots = shuffled_pool @ np.asarray(anchor_embedding, dtype=np.float64)
        cos_t = math.cos(math.pi * theta)
        sims = np.zeros(pool.count, dtype=np.float64)
        near = dots > cos_t
        d = np.arccos(np.clip(dots[near], -1.0, 1.0)) / math.pi
        sims[near] = np.expm1(np.maximum(theta - d, 0.0)) / math.expm1(theta)
        csum = np.cumsum(sims)
        points = tuple((s, mccs_of_mean(min(1.0, csum[s - 1] / s))) for s in sizes)
        return ConvergenceCurve(statistic_kind=kind, points=points)

    if anchors is None:
        raise ValueError(f"{kind} needs an anchors store")
    check_disjoint(anchors, pool)
    sizes = _check_sizes(sizes, min(pool.count, anchors.count), "pool and anchors")
    if sizes[0] < 2:
        raise SizesOutOfRangeError("population curves need sizes >= 2")
    mu, sigma = _population_curves(anchors, pool, sizes, theta, seed)
    return mu if kind == "mu_mccs" else sigma


def _population_curves(anchors: SampleStore, pool: SampleStore, sizes: list[int],
                       theta: float, seed: int) -> tuple[ConvergenceCurve, ConvergenceCurve]:
    """Both population curves from one prefix scan per size, gathering only rows read."""
    top = sizes[-1]
    pool_emb = pool.embeddings[_shuffled(pool.count, seed)[:top]]
    anchor_emb = anchors.embeddings[
        _shuffled(anchors.count, seed, offset=_ANCHOR_SHUFFLE_OFFSET)[:top]]
    stats = [(s, _stats(mean_similarities(anchor_emb[:s], pool_emb[:s], theta), s))
             for s in sizes]
    return (ConvergenceCurve("mu_mccs", tuple((s, st.mu) for s, st in stats)),
            ConvergenceCurve("sigma_mccs", tuple((s, st.sigma) for s, st in stats)))


def mode_consistency_check(anchors: SampleStore, pool: SampleStore, sizes,
                           radius: float) -> ConsistencyResult:
    """Worst-case mode recovered at several anchor-set sizes.

    The statistic is the largest pairwise distance among the winning
    embeddings: small means the same mode keeps winning as the anchor
    budget grows.
    """
    check_radius(radius)
    check_disjoint(anchors, pool)
    sizes = _check_sizes(sizes, anchors.count, "anchors")
    counts = neighbor_counts(anchors.embeddings, pool.embeddings, radius)
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


def build_report(anchors: SampleStore, pool: SampleStore, theta: float, radius: float,
                 k: int = 24, runner_ups: int = 9, curve_sizes=None,
                 seed: int = 0) -> dict:
    """Full diagnosis as a JSON-ready mapping with a fixed field order."""
    _check_population(anchors, pool)
    # theta and radius are validated once, by the scan
    counts, sims = scan(anchors.embeddings, pool.embeddings, theta, radius)
    stats = _stats(sims, pool.count)
    order = _rank(counts)
    worst = int(order[0])
    top = order[:min(k, anchors.count)]
    curves = []
    if curve_sizes:
        curves.append(convergence_curve(
            "mccs_single", pool, curve_sizes, theta, seed,
            anchor_embedding=anchors.embeddings[worst]))
        population_sizes = [int(s) for s in curve_sizes if 2 <= s <= anchors.count]
        if population_sizes:
            curves.extend(_population_curves(anchors, pool, population_sizes, theta, seed))
    return {
        "schema": 1,
        "theta": float(theta),
        "radius": float(radius),
        "m": anchors.count,
        "n": pool.count,
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
