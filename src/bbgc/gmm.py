"""Latent calibration by mixture reweighting.

The latent prior is approximated by a K-component Gaussian mixture
sitting on K-means clusters of fresh prior draws.  Clusters whose
members generate into a dense mode's neighborhood are down-weighted
(weight 1/(count+1), add-one smoothed so empty counts stay finite), and
sampling from the reweighted mixture replaces the prior.  The generator
itself is never touched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .embedding import block_rows, neighbor_counts
from .errors import (
    DegenerateDataError,
    EmptyClusterError,
    EmptyModeListError,
    InvalidConfigError,
    KTooLargeError,
    NonFiniteError,
)
from .jsonutil import CONTENT_ERRORS, json_field, read_json, write_json
from .rng import (
    STREAM_FIT,
    STREAM_GMM_COMPONENT,
    STREAM_GMM_NOISE,
    STREAM_KMEANS,
    CounterStream,
)
from .source import batches, generate, sample_latents

_VARIANCE_FLOOR = 1e-12

# k-means assignment chunks its GEMM by SAMPLE_CHUNK rows, and BLAS may
# round a GEMM differently at another row count.  The anchor x pool scan
# decides every pair on a per-pair dot, so its tile sizes set no bits.
SAMPLE_CHUNK = 8192

_MAX_ITERS = 100   # Lloyd iterations of a k-means fit, at most
_TOL = 1e-6        # relative inertia improvement that ends a fit

# numpy's add.reduce sums fewer than 8 contiguous terms left to right and
# switches to pairwise summation (its 8-way unrolled block) from 8 on, so
# narrower rows can be summed column by column with the same bits.
_PAIRWISE_TERMS = 8


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray = field(repr=False)   # (n,) cluster index per point
    inertia: float = 0.0


@dataclass(frozen=True)
class MixtureModel:
    means: np.ndarray       # (K, L)
    variances: np.ndarray   # (L,) shared diagonal covariance
    weights: np.ndarray     # (K,) sums to 1
    source_seed: int = 0

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> "MixtureModel":
        if self.means.ndim != 2 or 0 in self.means.shape:
            raise ValueError(f"means shape {self.means.shape}")
        if not all(np.all(np.isfinite(a)) for a in (self.means, self.variances, self.weights)):
            raise ValueError("means, variances and weights must be finite")
        if self.variances.shape != (self.latent_dim,) or np.any(self.variances <= 0):
            raise ValueError("variances must be positive per dimension")
        if self.weights.shape != (self.k,) or np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {np.sum(self.weights)}")
        return self


def _assign(latents: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, squared distances to the winning mean), chunked over points
    into arrays allocated once.  Each chunk's distances are made in place in
    one chunk x k buffer, the steps of ``mean_sq - 2.0 * (part @ means.T)``
    one by one."""
    n = latents.shape[0]
    mean_sq = np.sum(means ** 2, axis=1)
    buf = np.empty((min(SAMPLE_CHUNK, n), means.shape[0]))
    labels, best = np.empty(n, dtype=np.int64), np.empty(n)
    for lo in range(0, n, SAMPLE_CHUNK):
        part = latents[lo:lo + SAMPLE_CHUNK]
        d2 = np.matmul(part, means.T, out=buf[:len(part)])
        d2 *= 2.0
        np.subtract(mean_sq, d2, out=d2)
        won = np.argmin(d2, axis=1, out=labels[lo:lo + len(part)])
        np.maximum(d2[np.arange(len(part)), won] + np.sum(part ** 2, axis=1), 0.0,
                   out=best[lo:lo + len(part)])
    return labels, best


def _distance_pass(latents: np.ndarray):
    """A function ``(center, out)`` that writes each row's squared distance
    to ``center`` into the n-vector ``out``, as :func:`_kmeans_pp_init` says."""
    n, dim = latents.shape
    if dim < _PAIRWISE_TERMS:
        cols, term = latents.T.copy(), np.empty(n)

        def distances(center: np.ndarray, out: np.ndarray) -> None:
            out.fill(0.0)
            for col, c in zip(cols, center):
                out += np.square(np.subtract(col, c, out=term), out=term)
        return distances
    rows = block_rows(n, dim, piece=True)
    block = np.empty((rows, dim))

    def distances(center: np.ndarray, out: np.ndarray) -> None:
        for lo in range(0, n, rows):
            diff = np.subtract(latents[lo:lo + rows], center, out=block[:min(rows, n - lo)])
            np.add.reduce(np.square(diff, out=diff), axis=1, out=out[lo:lo + rows])
    return distances


def _kmeans_pp_init(latents: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding driven by the kmeans counter stream.

    A point's squared distance to a center has the bits of
    ``np.sum((latents - center) ** 2, axis=1)``.  numpy sums a row of
    fewer than ``_PAIRWISE_TERMS`` terms left to right, so below that
    many latent dims the distances are one pass per column over a
    transposed copy of the latents, adding the columns in order.  From
    there on each row is reduced by numpy as before, over row blocks of
    one :func:`~bbgc.embedding.block_rows` piece.  No pass allocates an
    n x latent_dim temporary.
    """
    n = latents.shape[0]
    stream = CounterStream(seed, STREAM_KMEANS)
    u = stream.uniforms(0, k)
    centers = np.empty((k, latents.shape[1]), dtype=np.float64)
    distances = _distance_pass(latents)
    d2, new = np.empty(n), np.empty(n)
    centers[0] = latents[int(u[0] * n) % n]
    distances(centers[0], d2)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            # all remaining mass sits on already-chosen points
            centers[j] = latents[int(u[j] * n) % n]
        else:
            target = u[j] * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            centers[j] = latents[min(idx, n - 1)]
        distances(centers[j], new)
        np.minimum(d2, new, out=d2)
    return centers


def _reseed_empty(latents: np.ndarray, means: np.ndarray, labels: np.ndarray,
                  best_d2: np.ndarray, k: int) -> None:
    """Give each empty cluster its own farthest point.

    Distinct donors per empty cluster, and never a cluster's only
    member, so the mean update afterwards cannot divide by zero even
    when the data has fewer distinct points than clusters.
    """
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if not empty.size:
        return
    order = np.argsort(-best_d2, kind="stable")
    pos = 0
    for j in empty:
        while pos < order.size and counts[labels[order[pos]]] <= 1:
            pos += 1
        if pos == order.size:
            return
        far = int(order[pos])
        pos += 1
        counts[labels[far]] -= 1
        counts[j] = 1
        means[j] = latents[far]
        labels[far] = j
        best_d2[far] = 0.0


def kmeans_fit(latents: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, ClusterAssignment]:
    """Lloyd iterations from k-means++ init.

    Stops when the relative inertia improvement falls below ``_TOL``.
    Empty clusters are re-seeded from the points farthest from their
    assigned means, so every returned cluster is non-empty.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2:
        raise ValueError(f"latents must be 2-D, got shape {latents.shape}")
    if not np.all(np.isfinite(latents)):
        raise NonFiniteError("latents must be finite")
    n = latents.shape[0]
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if k > n:
        raise KTooLargeError(f"K={k} exceeds n={n}")

    means = _kmeans_pp_init(latents, k, seed)
    prev_inertia = np.inf
    for _ in range(_MAX_ITERS):
        labels, best_d2 = _assign(latents, means)
        _reseed_empty(latents, means, labels, best_d2, k)
        inertia = float(np.sum(best_d2))
        # bincount adds each cluster's rows in index order, as np.add.at would
        sums = np.empty_like(means)
        for col in range(latents.shape[1]):
            sums[:, col] = np.bincount(labels, weights=latents[:, col], minlength=k)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        means = sums / counts[:, None]
        if prev_inertia - inertia <= _TOL * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    labels, best_d2 = _assign(latents, means)
    _reseed_empty(latents, means, labels, best_d2, k)
    inertia = float(np.sum(best_d2))
    return means, ClusterAssignment(labels=labels, inertia=inertia)


def compute_cluster_weights(labels: np.ndarray, k: int, embeddings: np.ndarray,
                            dense_modes: np.ndarray, r0: float) -> np.ndarray:
    """Normalized 1/(count+1) weights from dense-neighbor counts per cluster.

    The raw count of cluster j sums, over every dense mode, the number
    of cluster-j samples whose embedding lies within r0 of that mode.
    """
    dense_modes = np.atleast_2d(np.asarray(dense_modes, dtype=np.float64))
    if dense_modes.size == 0:   # atleast_2d makes no modes one of width 0
        raise EmptyModeListError("need at least one dense mode to reweight")
    # neighbor_counts is anchor-major; transpose the question: for each
    # sample, count the modes within r0 of it, then histogram by label.
    return _weights(labels, k, neighbor_counts(embeddings, dense_modes, r0))


def _weights(labels: np.ndarray, k: int, hits: np.ndarray) -> np.ndarray:
    """The weight formula: 1/(count+1) per cluster, normalized, where a
    cluster's count sums the ``hits`` (dense modes near it) of its samples."""
    labels = np.asarray(labels)
    occupancy = np.bincount(labels, minlength=k)
    if np.any(occupancy == 0):
        raise EmptyClusterError(f"cluster {int(np.argmin(occupancy))} is empty")
    # whole numbers below 2**53, so the float64 sums are exact
    weights = 1.0 / (np.bincount(labels, weights=hits, minlength=k) + 1.0)
    return weights / np.sum(weights)


def estimate_covariance(latents: np.ndarray, labels: np.ndarray,
                        means: np.ndarray) -> np.ndarray:
    """Pooled within-cluster diagonal variance shared by all components."""
    latents = np.asarray(latents, dtype=np.float64)
    n, k = latents.shape[0], means.shape[0]
    if n <= k:
        raise DegenerateDataError(f"n={n} leaves no degrees of freedom at K={k}")
    residual = latents - means[labels]
    var = np.sum(residual ** 2, axis=0) / (n - k)
    if np.any(var < _VARIANCE_FLOOR):
        warnings.warn(f"variance floored to {_VARIANCE_FLOOR:g} in "
                      f"{int(np.sum(var < _VARIANCE_FLOOR))} dimension(s)",
                      RuntimeWarning, stacklevel=2)
        var = np.maximum(var, _VARIANCE_FLOOR)
    return var


def sample_calibrated(model: MixtureModel, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n draws from the reweighted mixture, counter-addressed like the prior."""
    model.validate()
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cum = np.cumsum(model.weights)
    cum[-1] = 1.0 + 1e-12   # guard searchsorted against rounding at the top
    u = CounterStream(seed, STREAM_GMM_COMPONENT).uniforms(start, n)
    comp = np.searchsorted(cum, u, side="right")
    comp = np.minimum(comp, model.k - 1)
    out = CounterStream(seed, STREAM_GMM_NOISE).normal_rows(start, n, model.latent_dim)
    # in place: mean + noise * sd, whose sum has the bits of noise * sd + mean
    out *= np.sqrt(model.variances)
    out += model.means[comp]
    return out


def calibrate_gmm(source, dense_modes: np.ndarray, seed: int, k: int = 64,
                  r0: float = 0.25, n_fit: int = 100_000, source_seed: int = 0) -> MixtureModel:
    """Fit the reweighted mixture against a source's dense modes.

    Draws ``n_fit`` fresh prior latents and embeds them through the source
    (the only interaction with it) one :func:`~bbgc.source.batches` batch
    at a time, counting each batch's dense modes within ``r0`` as it comes,
    so only those counts outlive a batch.  It then clusters the latents and
    assembles the mixture with down-weighted dense clusters: the weights of
    :func:`compute_cluster_weights` over the whole fit set, bit for bit.
    """
    dense_modes = np.atleast_2d(np.asarray(dense_modes, dtype=np.float64))
    if dense_modes.size == 0:   # atleast_2d makes no modes one of width 0
        raise EmptyModeListError("need at least one dense mode to calibrate")
    latents = sample_latents(n_fit, source.latent_dim, seed, STREAM_FIT)
    hits = np.concatenate(list(batches(source, n_fit, lambda rows, lo: neighbor_counts(
        generate(source, latents[lo:lo + rows])[0], dense_modes, r0))))
    means, assignment = kmeans_fit(latents, k, seed)
    weights = _weights(assignment.labels, k, hits)
    variances = estimate_covariance(latents, assignment.labels, means)
    return MixtureModel(means=means, variances=variances, weights=weights,
                        source_seed=int(source_seed)).validate()


def save_mixture(path: str, model: MixtureModel, provenance: dict | None = None) -> None:
    doc = {
        "schema": 1,
        "kind": "mixture",
        "k": model.k,
        "latent_dim": model.latent_dim,
        "source_seed": model.source_seed,
        "weights": [float(w) for w in model.weights],
        "variances": [float(v) for v in model.variances],
        "means": [[float(x) for x in row] for row in model.means],
    }
    if provenance:
        doc["provenance"] = provenance
    write_json(path, doc, float_style="exact")


def load_mixture(path: str) -> MixtureModel:
    return mixture_from_doc(read_json(path), path)


def mixture_from_doc(doc, path: str) -> MixtureModel:
    try:
        if doc["kind"] != "mixture":
            raise InvalidConfigError(f"{path} is not a mixture model file")
        model = MixtureModel(
            means=json_field(doc, "means", ndim=2),
            variances=json_field(doc, "variances", ndim=1),
            weights=json_field(doc, "weights", ndim=1),
            source_seed=json_field(doc, "source_seed", 0, integer=True)).validate()
        if (json_field(doc, "k", model.k, integer=True),
                json_field(doc, "latent_dim", model.latent_dim, integer=True)) != model.means.shape:
            raise InvalidConfigError(f"{path}: k, latent_dim differ from means {model.means.shape}")
    except CONTENT_ERRORS as exc:
        raise InvalidConfigError(f"{path}: malformed mixture: {exc!r}") from exc
    return model
