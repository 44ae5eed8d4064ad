"""Hull projection, plan construction, and gated rejection sampling."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import bbgc.importance as importance
from bbgc.errors import (
    AcceptanceStallError,
    EmptyStoreError,
    InvalidConfigError,
    ZeroDenseCountError,
)
from bbgc.importance import (
    ImportanceSamplingPlan,
    _finish_entry,
    _match_entries,
    build_plan,
    calibrated_is_blocks,
    hull_membership,
    load_plan,
    reference_probes,
    sample_calibrated_is,
    save_plan,
)
from bbgc.embedding import normalize_rows
from bbgc.jsonutil import encode_matrix
from bbgc.rng import STREAM_IS_ACCEPT, STREAM_IS_PROPOSAL, STREAM_REFERENCE, CounterStream
from bbgc.store import SampleStore

from oracles import hull_distance, naive_counts

TOL = 1e-4


def random_hull(rng, k=5, dim=4, scale=1.0):
    return rng.normal(size=(k, dim)) * scale


def test_vertices_and_convex_combinations_are_members():
    rng = np.random.default_rng(1)
    v = random_hull(rng)
    for row in v:
        res = hull_membership(row, v)
        assert res.is_member and res.residual <= TOL * (1 + np.linalg.norm(row))
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(v)))
        z = v.T @ w
        res = hull_membership(z, v)
        assert res.is_member
        np.testing.assert_allclose(res.coefficients.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(v.T @ res.coefficients, z,
                                   atol=TOL * (1 + np.linalg.norm(z)))


def test_far_points_are_rejected():
    rng = np.random.default_rng(2)
    v = random_hull(rng)
    for _ in range(10):
        z = rng.normal(size=4) * 50.0
        assert not hull_membership(z, v).is_member
    for bad in (np.inf, -np.inf, np.nan):
        assert not hull_membership(np.array([bad, 0.0, 0.0, 0.0]), v).is_member


def test_verdicts_and_residuals_match_enumeration_oracle():
    for dim in (4, 16):   # a full-dimensional hull and a flat one
        rng = np.random.default_rng(3)
        center_hits = 0
        for trial in range(25):
            v = random_hull(rng, k=5, dim=dim)
            if trial % 2:
                z = v.T @ rng.dirichlet(np.ones(5) * 0.4)    # member or face point
            else:
                z = rng.normal(size=dim) * 1.5                # usually outside
            res = hull_membership(z, v)
            truth = hull_distance(z, v)
            tau = TOL * (1 + np.linalg.norm(z))
            assert res.is_member == (truth <= tau)
            center = v.mean(axis=0)
            in_sphere = np.linalg.norm(z - center) <= np.max(
                np.linalg.norm(v - center, axis=1)) + tau
            if in_sphere:
                center_hits += 1
                assert abs(res.residual - truth) <= 1e-9 * (1 + truth)
        assert center_hits >= 10   # the exact-residual branch actually ran


def test_sphere_precheck_reports_nearest_vertex():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = np.array([10.0, 0.0])
    res = hull_membership(z, v)
    assert not res.is_member
    assert res.residual == 9.0                       # distance to (1, 0)
    np.testing.assert_array_equal(res.coefficients, [0.0, 1.0, 0.0])


def test_solve_stopped_at_its_iteration_cap_is_not_a_member(monkeypatch):
    rng = np.random.default_rng(4)
    v = random_hull(rng, k=10, dim=3)
    z = v.mean(axis=0)
    assert hull_membership(z, v).is_member
    monkeypatch.setattr(importance, "_NNLS_ITERS", 1)
    res = hull_membership(z, v)
    assert not res.is_member
    nearest = np.min(np.linalg.norm(v - z, axis=1))
    assert res.residual == nearest


def test_single_vertex_hull():
    v = np.array([[2.0, -1.0, 0.5]])
    z_near = v[0] + 1e-6
    z_far = v[0] + 1.0
    assert hull_membership(z_near, v).is_member
    res = hull_membership(z_far, v)
    assert not res.is_member
    np.testing.assert_allclose(res.residual, np.sqrt(3.0), atol=1e-12)


def test_hull_membership_validation():
    v = np.zeros((3, 2))
    with pytest.raises(ValueError):
        hull_membership(np.zeros(3), v)
    with pytest.raises(ValueError):
        hull_membership(np.zeros(2), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        _finish_entry(0.5, np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), 4, 2, 0)


# -- plan construction -----------------------------------------------------------

def unit(i, d=4):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def eight_row_pool():
    # rows 0-4 on e0 (dense mode), row 5 on e1 (reference), rows 6-7 on e2
    emb = np.vstack([*(unit(0) for _ in range(5)), unit(1), unit(2), unit(2)])
    lat = np.arange(16, dtype=np.float64).reshape(8, 2)
    return SampleStore(latents=lat, embeddings=emb, seed=0)


def test_build_plan_counts_and_ordering():
    pool = eight_row_pool()
    plan = build_plan(pool, [(unit(2), 9), (unit(0), 4)], 5, r0=0.25, hull_size=3)
    assert plan.reference_index == 5
    np.testing.assert_array_equal(plan.reference_latent, pool.latents[5])
    np.testing.assert_array_equal(plan.reference_embedding, unit(1))
    # entries sorted by descending dense count regardless of input order
    first, second = plan.entries
    assert (first.mode_index, first.dense_count, first.ref_count) == (4, 5, 1)
    assert (second.mode_index, second.dense_count) == (9, 2)
    assert first.p == 1 / 5 and second.p == 1 / 2
    # hull vertices: the three angularly nearest pool latents, stored in
    # ascending index order (rows 6, 7 tie at angle 0; row 0 breaks the tie)
    np.testing.assert_array_equal(first.vertices, pool.latents[[0, 1, 2]])
    np.testing.assert_array_equal(second.vertices, pool.latents[[0, 6, 7]])


def test_build_plan_caps_p_at_one():
    pool = eight_row_pool()
    plan = build_plan(pool, [(unit(2), 0)], 0, r0=0.25, hull_size=2)
    assert plan.entries[0].p == 1.0                  # ref count 5 > dense count 2


def test_build_plan_validation():
    pool = eight_row_pool()
    with pytest.raises(ZeroDenseCountError):
        build_plan(pool, [(unit(3), 0)], 5, r0=0.25)
    with pytest.raises(EmptyStoreError):
        build_plan(SampleStore(np.empty((0, 2)), np.empty((0, 4)), 0),
                   [(unit(0), 0)], 0, r0=0.25)
    with pytest.raises(ValueError):
        build_plan(pool, [], 5, r0=0.25)
    with pytest.raises(ValueError):
        build_plan(pool, [(unit(0), 0)], 8, r0=0.25)
    with pytest.raises(ValueError):
        build_plan(pool, [(unit(0), 0)], 5, r0=0.25, hull_size=0)


@pytest.mark.parametrize("references, want", [
    ([0, 6, 5], 5),        # the least dense candidate: row 5 counts 1
    ([7, 6], 6),           # rows 6 and 7 count 2 each: the lower position
    ([4, 2, 3], 2),        # rows 0-4 count 5 each
    (np.array([3, 7]), 7),
])
def test_build_plan_picks_the_least_dense_reference(references, want):
    plan = build_plan(eight_row_pool(), [(unit(0), 0)], references, r0=0.25, hull_size=3)
    assert plan.reference_index == want
    assert plan.entries[0].ref_count == {5: 1, 6: 2, 2: 5, 7: 2}[want]
    np.testing.assert_array_equal(plan.reference_latent, eight_row_pool().latents[want])


def test_build_plan_counts_each_reference_candidate_once(monkeypatch, tmp_path):
    rows = []
    counts = importance.neighbor_counts
    monkeypatch.setattr(importance, "neighbor_counts",
                        lambda a, *rest: rows.append(len(a)) or counts(a, *rest))
    pool, modes = eight_row_pool(), [(unit(0), 0)]
    saved = []
    for references in ([6, 6, 7, 7, 6], [7, 6], 6, np.array([6])):
        plan = build_plan(pool, modes, references, r0=0.25, hull_size=3)
        path = tmp_path / f"plan{len(saved)}.json"
        save_plan(str(path), plan)
        saved.append(path.read_bytes())
    # duplicates collapse into one row of the one scan, beside the mode
    assert rows == [3, 3, 2, 2]
    # an int and a one-element array give the same plan, and so do a
    # candidate list whose least dense position is that one
    assert len(set(saved)) == 1


@pytest.mark.parametrize("references", [[], np.array([], dtype=np.int64), -1, 8,
                                        [3, 8], [-1, 3]])
def test_build_plan_rejects_empty_or_outside_references(references):
    with pytest.raises(ValueError, match="reference positions"):
        build_plan(eight_row_pool(), [(unit(0), 0)], references, r0=0.25)


@pytest.mark.parametrize("count", [1, 7, 255, 256, 50_000])
def test_reference_probes_are_seeded_pool_positions(count):
    probes = reference_probes(count, 5)
    assert probes.dtype == np.int64 and len(probes) == min(count, 256)
    assert np.all((0 <= probes) & (probes < count))
    u = CounterStream(5, STREAM_REFERENCE).uniforms(0, len(probes))
    np.testing.assert_array_equal(probes, (u * count).astype(np.int64) % count)


def test_build_plan_reference_is_the_least_dense_probe():
    # against the exact count of every probe on its own
    rng = np.random.default_rng(3)
    emb = normalize_rows(rng.normal(size=(600, 6)))
    emb[:150] = normalize_rows(emb[0] + 0.05 * rng.normal(size=(150, 6)))
    pool = SampleStore(rng.normal(size=(600, 2)), emb, seed=0)
    probes = reference_probes(pool.count, 11)
    best = min(zip(naive_counts(emb[probes], emb, 0.25), probes))
    plan = build_plan(pool, [(emb[0], 0)], probes, r0=0.25, hull_size=10)
    assert (plan.entries[0].ref_count, plan.reference_index) == (max(1, best[0]), best[1])


def test_build_plan_warns_on_hull_that_cannot_span_the_latent_space():
    pool = eight_row_pool()                           # latent dim 2
    with pytest.warns(RuntimeWarning, match="2 vertices cannot span the 2-d"):
        build_plan(pool, [(unit(0), 0)], 5, r0=0.25, hull_size=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_plan(pool, [(unit(0), 0)], 5, r0=0.25, hull_size=3)


def test_match_entry_takes_first_containing_hull():
    v = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.5]])
    plan = ImportanceSamplingPlan(
        entries=(_finish_entry(0.7, v, 4, 2, 0), _finish_entry(0.1, v, 4, 2, 1)),
        reference_index=0, reference_latent=np.zeros(2),
        reference_embedding=unit(0), r0=0.25, hull_size=3)
    match = _match_entries(plan, np.array([[0.0, 0.0], [40.0, 0.0]]))
    np.testing.assert_array_equal(match, [0, -1])


# -- batched matching against per-row hull_membership and the enumeration oracle ----

def plan_of(*hulls):
    return ImportanceSamplingPlan(
        entries=tuple(_finish_entry(0.5, v, 4, 2, i) for i, v in enumerate(hulls)),
        reference_index=0, reference_latent=np.zeros(hulls[0].shape[1]),
        reference_embedding=unit(0), r0=0.25, hull_size=len(hulls[0]))


def reference_match(plan, z):
    """The per-row loop: first entry whose hull_membership verdict is a member."""
    out = []
    for row in z:
        hits = [e for e, entry in enumerate(plan.entries)
                if hull_membership(row, entry.vertices).is_member]
        out.append(hits[0] if hits else -1)
    return np.array(out)


def near_facets(rng, v, n):
    """Points within +-2 tau of random points on random facets of hull(v)."""
    hull = ConvexHull(v)
    f = rng.integers(0, len(hull.simplices), n)
    w = rng.dirichlet(np.ones(v.shape[1]), n)
    on = np.einsum("mi,mij->mj", w, v[hull.simplices[f]])
    tau = TOL * (1.0 + np.linalg.norm(on, axis=1))
    return on + hull.equations[f, :-1] * (rng.uniform(-2.0, 2.0, n) * tau)[:, None]


def near_vertices(rng, v, n):
    """Points up to 3 tau from random vertices in random directions; near a
    sharp vertex a point can violate no facet by tau yet lie beyond tau."""
    at = v[rng.integers(0, len(v), n)]
    step = rng.normal(size=at.shape)
    step /= np.linalg.norm(step, axis=1)[:, None]
    tau = TOL * (1.0 + np.linalg.norm(at, axis=1))
    return at + step * (rng.uniform(0.0, 3.0, n) * tau)[:, None]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_matcher_agrees_with_hull_membership_and_oracle(dim):
    rng = np.random.default_rng(40 + dim)
    v = random_hull(rng, k=7, dim=dim)
    plan = plan_of(v)
    assert plan.entries[0].screen is not None
    z = np.vstack([near_facets(rng, v, 60), near_vertices(rng, v, 60),
                   rng.normal(size=(30, dim)) * 2.0,
                   (v.T @ rng.dirichlet(np.ones(7), 30).T).T])
    match = _match_entries(plan, z)
    np.testing.assert_array_equal(match, reference_match(plan, z))
    truth = [hull_distance(row, v) <= TOL * (1 + np.linalg.norm(row)) for row in z]
    np.testing.assert_array_equal(match == 0, truth)
    assert 0 < np.count_nonzero(match == 0) < len(z)


@pytest.mark.parametrize("tamper", ["swap cones", "halve weights"])
def test_batched_matcher_checks_the_coefficients_it_computes(tamper):
    rng = np.random.default_rng(12)
    # sharp corners, where rows beyond tau violate no facet by tau
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.05]])
    v = np.vstack([corners, rng.dirichlet(np.ones(3), 6) @ corners])
    plan = plan_of(v)
    entry = plan.entries[0]
    if tamper == "swap cones":
        # the weights still reproduce every row, but are negative outside
        # the other facet's cone
        shuffle = rng.permutation(len(entry.screen.corners))
        screen = dataclasses.replace(entry.screen, corners=entry.screen.corners[shuffle],
                                     inverses=entry.screen.inverses[shuffle])
    else:
        # the weights stay nonnegative slightly beyond a facet, but no
        # longer reproduce the rows
        screen = dataclasses.replace(entry.screen, inverses=entry.screen.inverses * 0.5)
    plan = dataclasses.replace(plan, entries=(dataclasses.replace(entry, screen=screen),))
    z = np.vstack([near_facets(rng, v, 100), near_vertices(rng, v, 300),
                   (v.T @ rng.dirichlet(np.ones(9), 50).T).T])
    np.testing.assert_array_equal(_match_entries(plan, z), reference_match(plan, z))


def test_batched_matcher_without_facet_screen():
    rng = np.random.default_rng(9)
    line = np.outer(rng.uniform(-2, 2, 6), [1.0, 0.5]) + [0.3, -0.1]    # collinear
    few = random_hull(rng, k=3, dim=4)                    # hull_size <= latent_dim
    wide = random_hull(rng, k=12, dim=5)                  # above the facet cap
    for v in (line, few, wide):
        plan = plan_of(v)
        assert plan.entries[0].screen is None
        k, dim = v.shape
        z = np.vstack([(v.T @ rng.dirichlet(np.ones(k), 20).T).T,
                       (v.T @ rng.dirichlet(np.ones(k), 20).T).T
                       + rng.normal(size=(20, dim)) * 1e-3,
                       rng.normal(size=(20, dim))])
        match = _match_entries(plan, z)
        np.testing.assert_array_equal(match, reference_match(plan, z))
        assert np.count_nonzero(match == 0) >= 20


def count_hull_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(importance, "hull_membership",
                        lambda *a, **k: calls.append(1) or hull_membership(*a, **k))
    return calls


def test_batched_matcher_sends_only_the_boundary_band_to_hull_membership(monkeypatch):
    plan = box_plan(p=0.5)
    z = CounterStream(7, STREAM_IS_PROPOSAL).normal_rows(0, 8192, 2)
    calls = count_hull_calls(monkeypatch)
    match = _match_entries(plan, z)
    assert len(calls) <= 5
    inside = np.all(np.abs(z) <= 3.5, axis=1)
    far = np.all(np.abs(np.abs(z) - 3.5) > 1e-3, axis=1)
    np.testing.assert_array_equal(match[far] == 0, inside[far])
    np.testing.assert_array_equal(match[~far], reference_match(plan, z[~far]))


def past_facets(rng, screen, n, lo, hi):
    """Points lo to hi tau beyond random points of random facet interiors:
    each corner weighs at least half its even share, so the nearest hull
    point is the one on the facet."""
    f = rng.integers(0, len(screen.corners), n)
    dim = screen.corners.shape[2]
    w = 0.5 * rng.dirichlet(np.ones(dim), n) + 0.5 / dim
    on = np.einsum("mi,mij->mj", w, screen.corners[f])
    tau = TOL * (1.0 + np.linalg.norm(on, axis=1))
    return on + screen.normals[f] * (rng.uniform(lo, hi, n) * tau)[:, None]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rows_just_past_a_facet_are_proven_inside_without_nnls(dim, monkeypatch):
    # their foot on the facet, weighted on its corners, is a hull point within tau
    rng = np.random.default_rng(70 + dim)
    v = random_hull(rng, k=7, dim=dim)
    plan = plan_of(v)
    screen = plan.entries[0].screen
    z = past_facets(rng, screen, 60, 0.05, 0.9)
    calls = count_hull_calls(monkeypatch)
    match = _match_entries(plan, z)
    assert len(calls) == 0 and np.all(match == 0)
    monkeypatch.undo()
    np.testing.assert_array_equal(match, reference_match(plan, z))
    assert all(hull_distance(row, v) <= TOL * (1 + np.linalg.norm(row)) for row in z)
    # rows past tau are never claimed, and rows near vertices keep their verdicts
    z = np.vstack([past_facets(rng, screen, 30, 1.1, 3.0), near_vertices(rng, v, 40)])
    match = _match_entries(plan, z)
    np.testing.assert_array_equal(match, reference_match(plan, z))
    assert np.all(match[:30] == -1)
    truth = [hull_distance(row, v) <= TOL * (1 + np.linalg.norm(row)) for row in z]
    np.testing.assert_array_equal(match == 0, truth)


# Run in a fresh interpreter: match rows just past 2-d facets, then print
# whether each was matched and whether scipy.optimize (nnls) was loaded.
_COLD_MATCH_PROBE = """
import sys
import numpy as np
from bbgc.importance import _TOL, ImportanceSamplingPlan, _finish_entry, _match_entries
rng = np.random.default_rng(3)
entry = _finish_entry(0.5, rng.normal(size=(7, 2)), 4, 2, 0)
s = entry.screen
f = rng.integers(0, len(s.corners), 500)
on = np.einsum("mi,mij->mj", 0.5 * rng.dirichlet(np.ones(2), 500) + 0.25, s.corners[f])
gap = rng.uniform(0.05, 0.9, 500) * _TOL * (1.0 + np.linalg.norm(on, axis=1))
plan = ImportanceSamplingPlan(entries=(entry,), reference_index=0, reference_latent=np.zeros(2),
                              reference_embedding=np.eye(4)[0], r0=0.25, hull_size=7)
match = _match_entries(plan, on + s.normals[f] * gap[:, None])
print(bool(np.all(match == 0)), "scipy.optimize" in sys.modules)
"""


def test_matching_rows_just_past_a_facet_does_not_load_nnls():
    import os
    import subprocess
    import sys
    src_root = os.path.dirname(os.path.dirname(importance.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _COLD_MATCH_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["True", "False"], out.stdout


def test_flat_hull_sends_no_prior_draw_to_nnls(monkeypatch):
    # 100 vertices span 99 of 128 dims: a prior draw sits about sqrt(29)
    # off their span, which the span test proves outside
    rng = np.random.default_rng(128)
    plan = plan_of(random_hull(rng, k=100, dim=128))
    assert plan.entries[0].screen is None and plan.entries[0].span is not None
    z = CounterStream(7, STREAM_IS_PROPOSAL).normal_rows(0, 2000, 128)
    calls = count_hull_calls(monkeypatch)
    match = _match_entries(plan, z)
    assert len(calls) <= 0.01 * len(z)
    assert np.all(match == -1)


@pytest.mark.parametrize("k, dim", [(2, 2), (4, 6), (20, 32), (7, 3), (12, 5)])
def test_span_test_agrees_with_hull_membership(k, dim):
    rng = np.random.default_rng(1000 * k + dim)
    v = random_hull(rng, k=k, dim=dim)
    plan = plan_of(v)
    span = plan.entries[0].span
    assert (span is not None) == (k <= dim)
    inside = rng.dirichlet(np.ones(k), 40) @ v
    a = rng.normal(size=(40, k))
    on_span = (a + (1.0 - a.sum(axis=1, keepdims=True)) / k) @ v   # affine, most off the hull
    # 0 to 3 tau off hull points, orthogonal to the span where it is flat
    base = rng.dirichlet(np.ones(k), 80) @ v
    step = rng.normal(size=(80, dim))
    if span is not None:
        step -= (step @ span.basis) @ span.basis.T
    step /= np.linalg.norm(step, axis=1)[:, None]
    near = base + step * (rng.uniform(0.0, 3.0, 80) * TOL
                          * (1.0 + np.linalg.norm(base, axis=1)))[:, None]
    z = np.vstack([inside, on_span, near, near_vertices(rng, v, 40),
                   rng.normal(size=(40, dim)) * 2.0])
    match = _match_entries(plan, z)
    np.testing.assert_array_equal(match, reference_match(plan, z))
    assert np.all(match[:40] == 0)
    if span is not None:   # off the span by up to 3 tau: some within tau, some not
        assert 0 < np.count_nonzero(match[80:160] == 0) < 80


# -- gated sampling ---------------------------------------------------------------

def box_plan(p, half=3.5):
    v = np.array([[-half, -half], [half, -half], [-half, half], [half, half]])
    return ImportanceSamplingPlan(
        entries=(_finish_entry(p, v, 10, 5, 0),),
        reference_index=0, reference_latent=np.zeros(2),
        reference_embedding=unit(0), r0=0.25, hull_size=4)


def test_sampling_without_entries_passes_prior_through():
    plan = ImportanceSamplingPlan(entries=(), reference_index=0,
                                  reference_latent=np.zeros(3),
                                  reference_embedding=unit(0), r0=0.25, hull_size=4)
    out, stats = sample_calibrated_is(plan, 50, seed=12)
    np.testing.assert_array_equal(
        out, CounterStream(12, STREAM_IS_PROPOSAL).normal_rows(0, 50, 3))
    assert stats.in_hull == 0 and stats.outside_hull == stats.proposals
    assert stats.outside_accepted == stats.outside_hull


def test_sampling_acceptance_rate_tracks_p():
    plan = box_plan(p=0.5)
    out, stats = sample_calibrated_is(plan, 2000, seed=7)
    assert out.shape == (2000, 2)
    assert stats.accepted == stats.in_hull_accepted + stats.outside_accepted
    assert stats.outside_accepted == stats.outside_hull
    # nearly every 2-D standard-normal draw lands inside the +-3.5 box
    assert stats.in_hull / stats.proposals > 0.95
    rate = stats.in_hull_accepted / stats.in_hull
    sigma = np.sqrt(0.25 / stats.in_hull)
    assert abs(rate - 0.5) <= 5 * sigma
    # accepted draws are a subsequence of the proposal stream
    proposals = CounterStream(7, STREAM_IS_PROPOSAL).normal_rows(0, stats.proposals, 2)
    rows = {row.tobytes() for row in proposals}
    assert all(row.tobytes() in rows for row in out)


def test_sampling_is_deterministic():
    plan = box_plan(p=0.3)
    a, stats_a = sample_calibrated_is(plan, 500, seed=3)
    b, stats_b = sample_calibrated_is(plan, 500, seed=3)
    np.testing.assert_array_equal(a, b)
    assert stats_a == stats_b
    c, _ = sample_calibrated_is(plan, 500, seed=4)
    assert not np.array_equal(a, c)


def _sample_joined(plan, n, seed):
    """The sampler as it was before it yielded blocks: every proposal batch's
    acceptances joined, then cut at n, with the stats of every batch."""
    p = np.array([entry.p for entry in plan.entries])
    proposals = CounterStream(seed, STREAM_IS_PROPOSAL)
    accepts = CounterStream(seed, STREAM_IS_ACCEPT)
    kept, total, accepted, in_hull, in_hull_accepted = [], 0, 0, 0, 0
    while accepted < n:
        batch = min(importance._PROPOSAL_BATCH, 1000 * n - total)
        z = proposals.normal_rows(total, batch, plan.latent_dim)
        u = accepts.uniforms(total, batch)
        match = _match_entries(plan, z)
        hit = match >= 0
        keep = ~hit
        keep[hit] = u[hit] <= p[match[hit]]
        in_hull += int(np.count_nonzero(hit))
        in_hull_accepted += int(np.count_nonzero(keep[hit]))
        kept.append(z[keep])
        total += batch
        accepted += int(np.count_nonzero(keep))
    return np.concatenate(kept)[:n], importance.AcceptanceStats(
        proposals=total, accepted=accepted, in_hull=in_hull,
        in_hull_accepted=in_hull_accepted, outside_hull=total - in_hull,
        outside_accepted=accepted - in_hull_accepted)


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 2 * 8192 + 1])
def test_sampler_blocks_join_to_the_joined_sample_with_its_stats(n):
    assert importance._PROPOSAL_BATCH == 8192
    plan = box_plan(p=0.5)
    want, want_stats = _sample_joined(plan, n, seed=5)
    blocks, gen = [], calibrated_is_blocks(plan, n, 5)
    while True:
        try:
            blocks.append(next(gen))
        except StopIteration as done:
            stats = done.value
            break
    # every proposal batch accepts rows here, so each gives one block
    assert len(blocks) == -(-stats.proposals // 8192) and all(len(b) for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), want)
    assert stats == want_stats
    out, out_stats = sample_calibrated_is(plan, n, seed=5)
    np.testing.assert_array_equal(out, want)
    assert out_stats == want_stats


def test_sampling_stalls_on_hopeless_plan():
    plan = box_plan(p=1e-12, half=50.0)   # hull swallows the prior, p ~ 0
    with pytest.raises(AcceptanceStallError, match="0 acceptances after 1000 proposals"):
        sample_calibrated_is(plan, 1, seed=1)


def test_sampling_validation():
    plan = box_plan(p=0.5)
    with pytest.raises(ValueError):
        sample_calibrated_is(plan, 0, seed=1)


# -- plan files -------------------------------------------------------------------

def test_plan_file_round_trip(tmp_path):
    pool = eight_row_pool()
    plan = build_plan(pool, [(unit(0), 4), (unit(2), 9)], 5, r0=0.25, hull_size=3)
    path = tmp_path / "plan.json"
    save_plan(str(path), plan, provenance={"note": "t"})
    back = load_plan(str(path))
    assert back.r0 == plan.r0 and back.hull_size == plan.hull_size
    assert back.reference_index == plan.reference_index
    np.testing.assert_array_equal(back.reference_latent, plan.reference_latent)
    np.testing.assert_array_equal(back.reference_embedding, plan.reference_embedding)
    assert len(back.entries) == 2
    for e_new, e_old in zip(back.entries, plan.entries):
        assert (e_new.p, e_new.dense_count, e_new.ref_count, e_new.mode_index) == \
               (e_old.p, e_old.dense_count, e_old.ref_count, e_old.mode_index)
        # vertices travel as f32
        np.testing.assert_array_equal(
            e_new.vertices, e_old.vertices.astype(np.float32).astype(np.float64))


def test_plan_file_round_trip_keeps_the_accepted_sequence(tmp_path):
    rng = np.random.default_rng(5)
    emb = normalize_rows(rng.normal(size=(400, 4)) * 0.1 + unit(0))
    # f32-exact latents survive the file's f32 vertices unchanged
    lat = rng.normal(size=(400, 3)).astype(np.float32).astype(np.float64)
    plan = build_plan(SampleStore(lat, emb, seed=0), [(unit(0), 0)], 0,
                      r0=0.25, hull_size=60)
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    back = load_plan(str(path))
    assert back.entries[0].screen is not None
    out, stats = sample_calibrated_is(plan, 300, seed=2)
    out_back, stats_back = sample_calibrated_is(back, 300, seed=2)
    np.testing.assert_array_equal(out, out_back)
    assert stats == stats_back and stats.in_hull > 0
    z = CounterStream(2, STREAM_IS_PROPOSAL).normal_rows(0, 400, 3)
    np.testing.assert_array_equal(_match_entries(back, z), reference_match(back, z))


def test_load_plan_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mixture"}')
    with pytest.raises(InvalidConfigError):
        load_plan(str(bad))
    bad.write_text('[1]')
    with pytest.raises(InvalidConfigError):
        load_plan(str(bad))
    bad.write_text('{"kind": "importance", "entries": [[1]]}')
    with pytest.raises(InvalidConfigError):
        load_plan(str(bad))

    pool = eight_row_pool()
    plan = build_plan(pool, [(unit(0), 0)], 5, r0=0.25, hull_size=2)
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    text = path.read_text().replace('"p": 0.2', '"p": 0.0')
    path.write_text(text)
    with pytest.raises(InvalidConfigError, match="outside"):
        load_plan(str(path))


def test_load_plan_checks_the_shape_it_states(tmp_path):
    plan = build_plan(eight_row_pool(), [(unit(0), 0)], 5, r0=0.25, hull_size=3)
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    doc = json.loads(path.read_text())
    bad = [dict(doc, latent_dim=3), dict(doc, entries=[]),
           dict(doc, reference=dict(doc["reference"], latent=[0.0, 0.0, 0.0])),
           dict(doc, entries=[dict(doc["entries"][0], vertices=encode_matrix(np.zeros((3, 3))))]),
           dict(doc, entries=[dict(doc["entries"][0], dense_count="7")]),
           dict(doc, entries=[dict(doc["entries"][0], ref_count=2.0)]),
           dict(doc, hull_size=2.9), dict(doc, r0="0.25")]
    for edited in bad:
        path.write_text(json.dumps(edited))
        with pytest.raises(InvalidConfigError):
            load_plan(str(path))


@pytest.mark.parametrize("field, value", [
    ("max_iters", -1), ("max_iters", 0), ("max_iters", 2.5), ("max_iters", "500"),
    ("max_iters", True), ("tol", -1e-4), ("tol", 0.0), ("tol", float("nan")),
    ("tol", float("inf")), ("tol", "1e-4"), ("max_iters", 400), ("tol", 1e-3),
])
def test_load_plan_rejects_bad_iteration_cap_and_tolerance(tmp_path, field, value):
    plan = build_plan(eight_row_pool(), [(unit(0), 0)], 5, r0=0.25, hull_size=3)
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    doc = json.loads(path.read_text())
    assert (doc["max_iters"], doc["tol"]) == (500, 1e-4)
    load_plan(str(path))   # what save_plan writes still loads
    path.write_text(json.dumps({k: v for k, v in doc.items() if k not in ("max_iters", "tol")}))
    load_plan(str(path))   # and so does a plan that leaves both out
    doc[field] = value
    path.write_text(json.dumps(doc))   # nan and inf travel as NaN and Infinity
    with pytest.raises(InvalidConfigError, match=field):
        load_plan(str(path))


def test_build_plan_picks_vertices_on_per_row_float64_dots(tmp_path):
    # the vertex dots are the scan's per-pair kernel, so a float32 pool read
    # from a store gives the plan of its float64 upcast, whatever BLAS does
    from bbgc.store import read_store, write_store
    rng = np.random.default_rng(50)
    emb = rng.normal(size=(4000, 24))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    emb[:300] = emb[0] + 0.05 * rng.normal(size=(300, 24))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    write_store(tmp_path / "p", rng.normal(size=(4000, 3)), emb, seed=0)
    pool = read_store(tmp_path / "p")
    upcast = SampleStore(pool.latents, pool.embeddings.astype(np.float64), seed=0)
    modes = [(upcast.embeddings[0], 0), (upcast.embeddings[1], 1)]
    plans = [build_plan(st, modes, 3000, r0=0.25, hull_size=40) for st in (pool, upcast)]
    for got, want in zip(*(p.entries for p in plans)):
        assert got.vertices.tobytes() == want.vertices.tobytes() and got.p == want.p
    for entry in plans[0].entries:
        mode = upcast.embeddings[entry.mode_index]
        dots = np.einsum("ij,j->i", upcast.embeddings, mode)   # one row's sum per row
        nearest = np.argsort(np.arccos(np.clip(dots, -1.0, 1.0)), kind="stable")[:40]
        assert entry.vertices.tobytes() == upcast.latents[np.sort(nearest)].tobytes()
