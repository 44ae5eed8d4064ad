"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: double loops, fsum accumulation,
mpmath closed forms, exhaustive subset enumeration.  Nothing imports
from the package's numeric kernels beyond plain array access, so a bug
cannot hide in both routes at once.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy.special import ndtri

mpmath.mp.dps = 50


def mp_distance(a, b):
    """Angular distance in units of pi at 50 decimal digits."""
    dot = mpmath.fsum(mpmath.mpf(float(x)) * mpmath.mpf(float(y))
                      for x, y in zip(a, b))
    dot = max(mpmath.mpf(-1), min(mpmath.mpf(1), dot))
    return mpmath.acos(dot) / mpmath.pi


def mp_similarity(distance, theta):
    d = mpmath.mpf(float(distance))
    t = mpmath.mpf(float(theta))
    if d >= t:
        return mpmath.mpf(0)
    return mpmath.expm1(t - d) / mpmath.expm1(t)


def mp_mccs(mean_similarity):
    s = mpmath.mpf(float(mean_similarity))
    if s == 0:
        return mpmath.mpf(0)
    return 1 / (1 - mpmath.log(s))


def naive_distance(a, b):
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    return math.acos(min(1.0, max(-1.0, dot))) / math.pi


def naive_similarity(distance, theta):
    if distance >= theta:
        return 0.0
    return math.expm1(theta - distance) / math.expm1(theta)


def naive_mean_similarity(anchor, pool, theta):
    return math.fsum(naive_similarity(naive_distance(anchor, row), theta)
                     for row in pool) / len(pool)


def naive_mccs(mean_similarity):
    if mean_similarity == 0.0:
        return 0.0
    return 1.0 / (1.0 - math.log(mean_similarity))


def naive_population(anchors, pool, theta):
    """(mu, sigma, per-anchor values) with the m-1 denominator."""
    values = [naive_mccs(naive_mean_similarity(a, pool, theta)) for a in anchors]
    m = len(values)
    mu = math.fsum(values) / m
    var = math.fsum((v - mu) ** 2 for v in values) / (m - 1)
    return mu, math.sqrt(var), values


def naive_counts(anchors, pool, radius):
    counts = []
    for a in anchors:
        counts.append(sum(1 for row in pool if naive_distance(a, row) <= radius))
    return counts


def naive_worst(anchors, pool, radius):
    """(index, count) with ties resolved to the lowest index."""
    counts = naive_counts(anchors, pool, radius)
    best = max(counts)
    return counts.index(best), best


def hull_distance(z, vertices):
    """Exact distance from z to the convex hull by subset enumeration.

    For every vertex subset, solve the equality-constrained least
    squares (KKT system) over its affine hull; feasible solutions
    (all coefficients nonnegative) are hull points, and the subset
    carrying the true projection's face is always among them.
    """
    v = np.asarray(vertices, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    best = np.inf
    for r in range(1, len(v) + 1):
        for subset in itertools.combinations(range(len(v)), r):
            vs = v[list(subset)]
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = vs @ vs.T
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.concatenate([vs @ z, [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            a = sol[:r]
            if np.all(a >= -1e-9):
                best = min(best, float(np.linalg.norm(vs.T @ a - z)))
    return best


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x):
    """SplitMix64 finalizer on a uint64 array, one fresh array per step."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(_SPLITMIX_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def hash_to_unit(h):
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, np.nextafter(1.0, 0.0))


def hash_rows(seed, latents):
    """Each latent row's 64-bit hash: the row's float64 bits folded column by
    column through SplitMix64."""
    bits = np.ascontiguousarray(latents, dtype=np.float64).view(np.uint64)
    h = np.full(len(bits), np.uint64(seed))
    for j in range(bits.shape[1]):
        h = splitmix64(h ^ bits[:, j])
    return h


def perturb(center, spread, hashes):
    """The synthetic source's embedding formula with a fresh array per step:
    ``center`` moved along tangent noise of scale ``spread``, drawn column by
    column from each row's hash, then normalized."""
    if spread == 0.0:
        return np.broadcast_to(center, (len(hashes), len(center)))
    cols = np.arange(1, len(center) + 1, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
    with np.errstate(over="ignore"):
        grid = hashes[:, None] + cols[None, :]
    noise = ndtri(hash_to_unit(splitmix64(grid)))
    coef = np.add.reduce(noise * center, axis=1)
    tangent = noise - np.outer(coef, center)
    moved = center[None, :] + spread * tangent
    return moved / np.linalg.norm(moved, axis=1)[:, None]


def synthetic_embed(model, select_seed, noise_seed, latents, rows=256):
    """Each latent's embedding under a synthetic model, ``rows`` latents at a
    time: the first planted ball that holds it, else the background
    component its select hash picks, perturbed by its noise hash."""
    out = np.empty((len(latents), model.embed_dim))
    components = model.planted + model.background
    for lo in range(0, len(latents), rows):
        z = latents[lo:lo + rows]
        label = np.full(len(z), -1)
        for j, mode in enumerate(model.planted):
            if mode.ball_radius2 > 0.0:
                inside = np.sum((z - mode.latent_anchor) ** 2, axis=1) <= mode.ball_radius2
                label[(label < 0) & inside] = j
        pick = np.searchsorted(model.weights_cum, hash_to_unit(hash_rows(select_seed, z)),
                               side="right")
        rest = label < 0
        label[rest] = len(model.planted) + np.minimum(pick, len(model.background) - 1)[rest]
        hashes = hash_rows(noise_seed, z)
        for c, component in enumerate(components):
            held = label == c
            out[lo:lo + rows][held] = perturb(component.center, component.spread, hashes[held])
    return out


def kmeans_pp_init(latents, k, u):
    """k-means++ seeding with one fresh n x L array per distance pass, driven
    by the k uniforms ``u``: each next center is the first point whose
    cumulative squared distance to the chosen centers passes ``u[j]`` of
    the total, or the point ``u[j]`` indexes once every distance is 0."""
    n = len(latents)
    centers = np.empty((k, latents.shape[1]))
    centers[0] = latents[int(u[0] * n) % n]
    d2 = np.sum((latents - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            centers[j] = latents[int(u[j] * n) % n]
        else:
            idx = int(np.searchsorted(np.cumsum(d2), u[j] * total, side="right"))
            centers[j] = latents[min(idx, n - 1)]
        d2 = np.minimum(d2, np.sum((latents - centers[j]) ** 2, axis=1))
    return centers
