"""Latent calibration by hull-gated rejection sampling.

For each dense mode, the high-density latent region is approximated by
the convex hull of the latents behind the mode's nearest samples.
Prior draws landing inside a hull are kept with probability p (the
reference-to-dense neighbor count ratio); draws outside every hull are
always kept, so off-mode regions are provably untouched.

A proposal batch is matched to the plan's entries in order, each entry
taking the still-unmatched rows through three stages:

1. The entry's bounding sphere rejects rows further than the tolerance
   ``_TOL``·(1+|z|) outside it.
2. Where Qhull could build the hull (latent dim 2 to 4, vertices not
   flat), an exact screen: a row whose largest violation of the unit
   facet halfspaces exceeds the tolerance, the vertices' own measured
   violation and a floating-point rounding bound is provably outside.
   A row is provably inside when it has nonnegative coefficients over
   the entry's vertex rows that reproduce it within tolerance: they are
   its barycentric coordinates in the cone from the vertex centroid over
   the facet its ray from the centroid leaves through.
3. Every other row goes to :func:`hull_membership`.

Hull membership is one nonnegative least-squares solve (Lawson and
Hanson, Solving Least Squares Problems, 1974, ch. 23): the b >= 0
minimizing ||[(V - z)^T; 1^T] b - [0; 1]|| is the projection's simplex
weights a scaled by 1/(1 + d^2), for the distance d from z to the hull,
so a = b / sum(b).  The solve stops after ``_NNLS_ITERS`` iterations.
Membership is claimed only when the residual ||V^T a - z|| is inside
tolerance, so an unconverged solve can never produce a false positive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embedding import block_rows, check_radius, neighbor_counts, row_dots
from .errors import (
    AcceptanceStallError,
    EmptyStoreError,
    InvalidConfigError,
    ZeroDenseCountError,
)
from .jsonutil import (CONTENT_ERRORS, decode_matrix, encode_matrix, json_field, read_json,
                       write_json)
from .rng import STREAM_IS_ACCEPT, STREAM_IS_PROPOSAL, CounterStream
from .store import SampleStore

_PROPOSAL_BATCH = 8192   # fixed: batch boundaries are part of no contract,
                         # but stats are counted per full batch
_MAX_PROPOSALS_PER_DRAW = 1000   # proposals per requested draw before a stall
_TOL = 1e-4          # membership tolerance relative to 1 + |z|
_NNLS_ITERS = 500    # iteration cap of one hull solve

# Qhull facet counts grow steeply with dimension: for 100 vertices about
# 166 facets at 4-d, 2479 at 6-d and 48 496 at 8-d, where one batch's
# violation block alone would take 3.2 GB.
_FACET_MAX_DIM = 4

# Each quantity the screen compares (n·z + b, a vertex's n·v + b, the
# centroid, V^T a - z) is a sum of at most k + dim + 2 rounded terms, for
# k vertices, whose magnitudes add up to at most 1 + |z| + scale, so its
# error is below gamma_(k+dim+2)·(1 + |z| + scale) <= (k + dim + 2)·eps·(...)
# in any summation order (Higham, Accuracy and Stability of Numerical
# Algorithms, §3.1).  The factor 4 covers the few that stack in one verdict.
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class HullMembership:
    """Projection result.  For queries rejected by the bounding-sphere
    precheck, or whose solve hit its iteration cap, the residual is the
    nearest-vertex distance (an upper bound), not the exact hull
    distance."""

    is_member: bool
    residual: float
    coefficients: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class _FacetScreen:
    """One entry's hull as Qhull facets, each coned to the vertex centroid."""

    normals: np.ndarray        # (facets, L) unit normals, n·x + b <= 0 inside
    offsets: np.ndarray        # (facets,)
    depths: np.ndarray         # (facets,) -(n·c + b) > 0 at the centroid c
    corners: np.ndarray        # (facets, L, L) each facet's vertex rows
    inverses: np.ndarray       # (facets, L, L) z - c -> weights on the corners
    slack: float               # largest n·v + b over the entry's own vertices
    scale: float               # max |v| + max |b|, the size of rounded terms


@dataclass(frozen=True)
class PlanEntry:
    p: float
    vertices: np.ndarray       # (hull size, L) float64
    dense_count: int
    ref_count: int
    mode_index: int            # anchor index the mode came from, -1 if unknown
    bound_center: np.ndarray = field(repr=False, default=None)
    bound_radius: float = 0.0
    screen: _FacetScreen | None = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class ImportanceSamplingPlan:
    entries: tuple[PlanEntry, ...]
    reference_index: int
    reference_latent: np.ndarray
    reference_embedding: np.ndarray
    r0: float
    hull_size: int

    @property
    def latent_dim(self) -> int:
        return self.reference_latent.shape[0]


@dataclass(frozen=True)
class AcceptanceStats:
    proposals: int
    accepted: int
    in_hull: int
    in_hull_accepted: int
    outside_hull: int
    outside_accepted: int


def _facet_screen(vertices: np.ndarray, center: np.ndarray) -> _FacetScreen | None:
    """Facets of the vertices' hull, or None where Qhull is not used:
    above ``_FACET_MAX_DIM``, in 1-d, or on a flat hull."""
    k, dim = vertices.shape
    if not 2 <= dim <= _FACET_MAX_DIM or k <= dim:
        return None
    from scipy.spatial import ConvexHull, QhullError   # on first use, as nnls below
    try:
        hull = ConvexHull(vertices)
    except QhullError:
        return None
    norms = np.linalg.norm(hull.equations[:, :-1], axis=1)
    normals = hull.equations[:, :-1] / norms[:, None]
    offsets = hull.equations[:, -1] / norms
    depths = -(normals @ center + offsets)
    if not np.all(depths > 0.0):
        return None
    corners = vertices[hull.simplices]
    return _FacetScreen(
        normals=normals, offsets=offsets, depths=depths, corners=corners,
        # pinv, not inv: a sliver facet gets useless weights, which the
        # residual check then rejects, instead of an exception
        inverses=np.linalg.pinv(np.swapaxes(corners - center, 1, 2)),
        slack=float(np.max(vertices @ normals.T + offsets)),
        scale=float(np.max(np.linalg.norm(vertices, axis=1)) + np.max(np.abs(offsets))))


def _bounding_sphere(vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """(center, radius) of a sphere that holds the hull: the vertex mean, its furthest vertex."""
    center = vertices.mean(axis=0)
    return center, float(np.max(np.linalg.norm(vertices - center, axis=1)))


def _finish_entry(p: float, vertices: np.ndarray, dense_count: int, ref_count: int,
                  mode_index: int) -> PlanEntry:
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    if not np.all(np.isfinite(vertices)):
        raise ValueError("plan vertices must be finite")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"plan entry has p={p} outside (0, 1]")
    center, radius = _bounding_sphere(vertices)
    return PlanEntry(p=float(p), vertices=vertices, dense_count=int(dense_count),
                     ref_count=int(ref_count), mode_index=int(mode_index),
                     bound_center=center, bound_radius=radius,
                     screen=_facet_screen(vertices, center))


def hull_membership(z: np.ndarray, vertices: np.ndarray) -> HullMembership:
    """Is z a convex combination of the vertices, within ``_TOL``·(1+|z|)?

    Solves min ||V^T a - z|| over the simplex.  The bounding sphere of
    the vertices rejects points that provably cannot be members before
    any solve runs: every hull point lies within the sphere, so a query
    further than the tolerance away from it is further than that from
    the hull.  A query with no finite norm is rejected there too.  Every
    other query is one nonnegative least-squares solve capped at
    ``_NNLS_ITERS`` iterations; a solve that reaches the cap reports the
    nearest vertex, as the sphere does.
    """
    v = np.ascontiguousarray(vertices, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1 or z.shape != (v.shape[1],):
        raise ValueError(f"vertices {v.shape} vs query {z.shape}")
    k = v.shape[0]
    tau = _TOL * (1.0 + float(np.linalg.norm(z)))

    center, bound = _bounding_sphere(v)
    if math.isfinite(tau) and float(np.linalg.norm(z - center)) <= bound + tau:
        from scipy.optimize import nnls   # only `is` plans get here; see the cold-start test
        try:
            b = nnls(np.vstack([(v - z).T, np.ones(k)]), np.append(np.zeros(len(z)), 1.0),
                     maxiter=_NNLS_ITERS)[0]
        except RuntimeError:   # iteration cap
            pass
        else:
            alpha = b / b.sum()
            residual = float(np.linalg.norm(v.T @ alpha - z))
            return HullMembership(is_member=bool(residual <= tau), residual=residual,
                                  coefficients=alpha)
    nearest = int(np.argmin(np.linalg.norm(v - z, axis=1)))
    alpha = np.zeros(k)
    alpha[nearest] = 1.0
    return HullMembership(is_member=False, residual=float(np.linalg.norm(v[nearest] - z)),
                          coefficients=alpha)


def build_plan(pool: SampleStore, dense_modes: Sequence[tuple[np.ndarray, int]],
               reference_index: int, r0: float,
               hull_size: int = 100) -> ImportanceSamplingPlan:
    """Acceptance probabilities and hulls for a list of dense modes.

    ``dense_modes`` pairs each mode embedding with its anchor index.
    ``reference_index`` is the pool position of the reference sample,
    whose neighbor count is the numerator of every p.  A reference with
    an empty neighborhood still counts 1 so that p stays positive.
    """
    check_radius(r0)
    if pool.count == 0:
        raise EmptyStoreError("cannot build a plan from an empty store")
    if not dense_modes:
        raise ValueError("need at least one dense mode")
    if hull_size < 1:
        raise ValueError(f"hull_size must be >= 1, got {hull_size}")
    ref = int(reference_index)
    if not 0 <= ref < pool.count:
        raise ValueError(f"reference index {ref} outside store of {pool.count}")
    mode_embs = np.asarray([np.asarray(e, dtype=np.float64) for e, _ in dense_modes])
    mode_idx = [int(i) for _, i in dense_modes]
    # each count is decided on its own float64 dots, so one scan serves both
    counts = neighbor_counts(np.vstack([pool.embeddings[[ref]], mode_embs]), pool.embeddings, r0)
    ref_count, dense_counts = max(1, int(counts[0])), counts[1:]

    entries = []
    size = min(hull_size, pool.count)
    for j in np.argsort(-dense_counts, kind="stable"):
        dc = int(dense_counts[j])
        if dc == 0:
            raise ZeroDenseCountError(
                f"mode at anchor {mode_idx[j]} has no neighbors within {r0}")
        # the scan's per-pair float64 kernel: no BLAS rounding picks a vertex
        dots = np.clip(row_dots(pool.embeddings, mode_embs[j]), -1.0, 1.0)
        nearest = np.argsort(np.arccos(dots), kind="stable")[:size]
        p = min(1.0, ref_count / dc)
        entries.append(_finish_entry(p, pool.latents[np.sort(nearest)], dc,
                                     ref_count, mode_idx[j]))
    latent_dim = pool.latents.shape[1]
    if size <= latent_dim:
        warnings.warn(f"hulls of {size} vertices cannot span the {latent_dim}-d latent "
                      "space: they hold almost no prior mass, so the plan will accept "
                      "nearly every draw", RuntimeWarning, stacklevel=2)
    return ImportanceSamplingPlan(
        entries=tuple(entries), reference_index=ref,
        reference_latent=pool.latents[ref].copy(),
        reference_embedding=pool.embeddings[ref].astype(np.float64),
        r0=float(r0), hull_size=int(hull_size))


def _screen(entry: PlanEntry, z: np.ndarray, znorm: np.ndarray,
            tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(provably inside, undecided) masks of rows z against the entry's hull.

    Every hull point satisfies n·x + b <= slack, so a row violating some
    facet by more than tau + slack, plus rounding, is further than tau
    from the hull.  A row is inside when w0·c + sum(w_i·v_i) reproduces
    it within tau, rounding included, with w0, w >= 0: the coefficients
    w0/k on every vertex row plus w on the facet's rows are then a convex
    combination of the entry's own vertices."""
    screen = entry.screen
    c = entry.bound_center
    k, dim = entry.vertices.shape
    rounding = _ROUNDING * (k + dim + 2) * (1.0 + znorm + screen.scale)
    gap = z @ screen.normals.T + screen.offsets
    outside = np.max(gap, axis=1) > tau + screen.slack + rounding
    rows = np.flatnonzero(~outside)
    # the ray from c through z leaves through the facet with the largest
    # n·(z - c) / depth, which is (n·z + b) / depth + 1
    facet = np.argmax(gap[rows] / screen.depths, axis=1)
    w = np.einsum("mij,mj->mi", screen.inverses[facet], z[rows] - c)
    w0 = 1.0 - w.sum(axis=1)
    x = w0[:, None] * c + np.einsum("mi,mij->mj", w, screen.corners[facet])
    residual = np.linalg.norm(x - z[rows], axis=1)
    inside = np.zeros(len(z), dtype=bool)
    inside[rows] = ((w0 >= 0.0) & np.all(w >= 0.0, axis=1)
                    & (residual + rounding[rows] <= tau[rows]))
    return inside, ~(outside | inside)


def _row_norms(z: np.ndarray, rows: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
    """``np.linalg.norm(z[rows] - center, axis=1)`` (``center`` None: 0), taken
    a piece of rows at a time: each norm is a reduction over its own row, so
    the bits are those of the whole call, with no temporary of the batch's size."""
    out = np.empty(len(rows))
    step = block_rows(len(rows), z.shape[1], piece=True)
    for lo in range(0, len(rows), step):
        part = z[rows[lo:lo + step]]
        out[lo:lo + step] = np.linalg.norm(part if center is None else part - center, axis=1)
    return out


def _match_entries(plan: ImportanceSamplingPlan, z: np.ndarray) -> np.ndarray:
    """Per row of z, the index of the first entry whose hull contains it, else -1."""
    match = np.full(z.shape[0], -1, dtype=np.int64)
    znorm = _row_norms(z, np.arange(z.shape[0]))
    tau = _TOL * (1.0 + znorm)
    for e, entry in enumerate(plan.entries):
        rows = np.flatnonzero(match < 0)
        # every hull point lies in the bounding sphere
        rows = rows[_row_norms(z, rows, entry.bound_center) <= entry.bound_radius + tau[rows]]
        if entry.screen is not None:
            inside, undecided = _screen(entry, z[rows], znorm[rows], tau[rows])
            match[rows[inside]] = e
            rows = rows[undecided]
        for i in rows:
            if hull_membership(z[i], entry.vertices).is_member:
                match[i] = e
    return match


def calibrated_is_blocks(plan: ImportanceSamplingPlan, n: int, seed: int):
    """The first n accepted prior draws of ``plan.latent_dim`` under the plan's
    hull-gated acceptance, as a generator: each proposal batch's accepted
    rows, cut at n, and no empty block.  Once used up it returns the
    :class:`AcceptanceStats` of every proposal it processed, acceptances
    past n included.

    Proposal i and its acceptance variate are both addressed by i, and the
    batches are fixed, so the accepted sequence is a pure function of (plan,
    seed, n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = np.array([entry.p for entry in plan.entries])
    proposals = CounterStream(seed, STREAM_IS_PROPOSAL)
    accepts = CounterStream(seed, STREAM_IS_ACCEPT)
    total = accepted = in_hull = in_hull_accepted = 0
    limit = _MAX_PROPOSALS_PER_DRAW * n
    while accepted < n:
        if total >= limit:
            raise AcceptanceStallError(
                f"{accepted} acceptances after {total} proposals; "
                "the plan's acceptance probabilities look misconfigured")
        batch = min(_PROPOSAL_BATCH, limit - total)
        z = proposals.normal_rows(total, batch, plan.latent_dim)
        u = accepts.uniforms(total, batch)
        match = _match_entries(plan, z)
        hit = match >= 0
        keep = ~hit
        keep[hit] = u[hit] <= p[match[hit]]
        in_hull += int(np.count_nonzero(hit))
        in_hull_accepted += int(np.count_nonzero(keep[hit]))
        kept = z[keep][:n - accepted]
        total += batch
        accepted += int(np.count_nonzero(keep))
        if len(kept):
            yield kept
        z = kept = None   # else they live on while the next batch is drawn
    return AcceptanceStats(
        proposals=total, accepted=accepted, in_hull=in_hull,
        in_hull_accepted=in_hull_accepted, outside_hull=total - in_hull,
        outside_accepted=accepted - in_hull_accepted)


def sample_calibrated_is(plan: ImportanceSamplingPlan, n: int,
                         seed: int) -> tuple[np.ndarray, AcceptanceStats]:
    """The rows of :func:`calibrated_is_blocks` in one array, and its stats."""
    kept, blocks = [], calibrated_is_blocks(plan, n, seed)
    while True:
        try:
            kept.append(next(blocks))
        except StopIteration as done:
            return np.concatenate(kept), done.value


def save_plan(path: str, plan: ImportanceSamplingPlan,
              provenance: dict | None = None) -> None:
    doc = {
        "schema": 1,
        "kind": "importance",
        "latent_dim": plan.latent_dim,
        "r0": plan.r0,
        "hull_size": plan.hull_size,
        "tol": _TOL,
        "max_iters": _NNLS_ITERS,
        "reference": {
            "index": plan.reference_index,
            "latent": [float(x) for x in plan.reference_latent],
            "embedding": [float(x) for x in plan.reference_embedding],
        },
        "entries": [
            {
                "p": entry.p,
                "dense_count": entry.dense_count,
                "ref_count": entry.ref_count,
                "mode_index": entry.mode_index,
                "vertices": encode_matrix(entry.vertices),
            }
            for entry in plan.entries
        ],
    }
    if provenance:
        doc["provenance"] = provenance
    write_json(path, doc, float_style="exact")


def load_plan(path: str) -> ImportanceSamplingPlan:
    return plan_from_doc(read_json(path), path)


def plan_from_doc(doc, path: str) -> ImportanceSamplingPlan:
    try:
        if doc["kind"] != "importance":
            raise InvalidConfigError(f"{path} is not an importance-sampling plan file")
        dim = json_field(doc, "latent_dim", integer=True)
        max_iters = json_field(doc, "max_iters", _NNLS_ITERS, integer=True)
        tol = json_field(doc, "tol", _TOL)
        if (max_iters, tol) != (_NNLS_ITERS, _TOL):
            raise InvalidConfigError(f"{path}: need max_iters {_NNLS_ITERS}, tol {_TOL}: "
                                     f"{max_iters}, {tol}")
        entries = tuple(
            _finish_entry(json_field(e, "p"), decode_matrix(e["vertices"]),
                          json_field(e, "dense_count", integer=True),
                          json_field(e, "ref_count", integer=True),
                          json_field(e, "mode_index", -1, integer=True))
            for e in doc["entries"])
        ref = doc["reference"]
        plan = ImportanceSamplingPlan(
            entries=entries, reference_index=json_field(ref, "index", integer=True),
            reference_latent=json_field(ref, "latent", ndim=1),
            reference_embedding=json_field(ref, "embedding", ndim=1),
            r0=json_field(doc, "r0"), hull_size=json_field(doc, "hull_size", integer=True))
        if not entries or {plan.latent_dim, *(e.vertices.shape[1] for e in entries)} != {dim}:
            raise InvalidConfigError(f"{path}: need entries, vertices and reference of dim {dim}")
    except CONTENT_ERRORS as exc:
        raise InvalidConfigError(f"{path}: malformed plan: {exc!r}") from exc
    return plan
