"""Mixture reweighting: clustering, weights, covariance, sampling, files."""

import json
import tracemalloc

import numpy as np
import pytest

from bbgc.embedding import PIECE_BYTES, neighbor_counts
from bbgc.errors import (
    DegenerateDataError,
    EmptyClusterError,
    EmptyModeListError,
    InvalidConfigError,
    KTooLargeError,
    MalformedResponseError,
    NonFiniteError,
)
from bbgc import gmm
from bbgc.gmm import (
    MixtureModel,
    calibrate_gmm,
    compute_cluster_weights,
    estimate_covariance,
    kmeans_fit,
    load_mixture,
    sample_calibrated,
    save_mixture,
)
from bbgc.rng import STREAM_FIT, STREAM_GMM_COMPONENT, STREAM_KMEANS, CounterStream
from bbgc.source import SyntheticSource, build_synthetic_model, sample_latents

from oracles import kmeans_pp_init


def blobs(seed=0, n_per=100, centers=((0, 0), (10, 0), (0, 10))):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=(n_per, 2)) * 0.5 + np.asarray(c, dtype=float)
             for c in centers]
    return np.vstack(parts)


def test_kmeans_recovers_separated_blobs():
    lat = blobs()
    means, assignment = kmeans_fit(lat, 3, seed=11)
    # every cluster mean lands near one distinct blob center
    found = {tuple(np.round(m).astype(int)) for m in means}
    assert found == {(0, 0), (10, 0), (0, 10)}
    assert len(np.unique(assignment.labels)) == 3
    # labels agree with nearest-mean assignment done by hand
    d2 = ((lat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(assignment.labels, np.argmin(d2, axis=1))
    assert abs(assignment.inertia - d2.min(axis=1).sum()) < 1e-8


def test_kmeans_deterministic():
    lat = blobs(seed=3)
    m1, a1 = kmeans_fit(lat, 5, seed=7)
    m2, a2 = kmeans_fit(lat, 5, seed=7)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(a1.labels, a2.labels)
    m3, _ = kmeans_fit(lat, 5, seed=8)
    assert not np.array_equal(m1, m3)


def test_kmeans_handles_duplicate_points():
    # more clusters than distinct points forces the empty-cluster path
    lat = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 30, axis=0)
    means, assignment = kmeans_fit(lat, 5, seed=2)
    assert np.bincount(assignment.labels, minlength=5).min() >= 1
    assert assignment.inertia >= 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 64, 512])
def test_kmeans_pp_init_matches_the_allocating_seeding(dim):
    # 1000 rows cross several wide-latent row blocks and end in a partial one
    k, seed = 16, 5
    u = CounterStream(seed, STREAM_KMEANS).uniforms(0, k)
    rng = np.random.default_rng(dim)
    lat, center = rng.normal(size=(1000, dim)), rng.normal(size=dim)
    # random rows, rows with many tied distances, and rows that leave no
    # distance mass after the first center
    for rows in (lat, np.round(lat, 1), np.repeat(lat[:1], len(lat), axis=0)):
        out = np.empty(len(rows))
        gmm._distance_pass(rows)(center, out)
        np.testing.assert_array_equal(out, np.sum((rows - center) ** 2, axis=1))
        np.testing.assert_array_equal(gmm._kmeans_pp_init(rows, k, seed),
                                      kmeans_pp_init(rows, k, u))


def test_wide_latent_seeding_holds_no_full_size_temporary():
    n, dim, k = 4096, 512, 4
    lat = np.random.default_rng(0).normal(size=(n, dim))
    tracemalloc.start()
    try:
        gmm._kmeans_pp_init(lat, k, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few n-vectors (distances, their running minimum, the cumulative
    # sum) plus one row block, against 16 MiB for one n x 512 temporary
    assert peak < 8 * n * 8 + PIECE_BYTES + k * dim * 8, peak


def _lloyd_with_add_at(latents, k, seed):
    """kmeans_fit's iterations with the mean update taken by np.add.at, and
    whether any assignment left a cluster empty."""
    means = gmm._kmeans_pp_init(latents, k, seed)
    prev_inertia, emptied = np.inf, False
    for _ in range(gmm._MAX_ITERS):
        labels, best_d2 = gmm._assign(latents, means)
        emptied |= bool(np.bincount(labels, minlength=k).min() == 0)
        gmm._reseed_empty(latents, means, labels, best_d2, k)
        inertia = float(np.sum(best_d2))
        sums = np.zeros_like(means)
        np.add.at(sums, labels, latents)
        means = sums / np.bincount(labels, minlength=k)[:, None]
        if prev_inertia - inertia <= gmm._TOL * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    labels, best_d2 = gmm._assign(latents, means)
    gmm._reseed_empty(latents, means, labels, best_d2, k)
    return means, labels, float(np.sum(best_d2)), emptied


@pytest.mark.parametrize("lat, k, expect_empty", [
    (np.random.default_rng(3).normal(size=(5000, 2)), 64, False),
    (np.random.default_rng(4).normal(size=(2000, 9)), 12, False),
    (np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 30, axis=0), 5, True),
])
def test_kmeans_fit_matches_an_add_at_mean_update(lat, k, expect_empty):
    means, assignment = kmeans_fit(lat, k, seed=9)
    ref_means, ref_labels, ref_inertia, emptied = _lloyd_with_add_at(lat, k, 9)
    assert emptied == expect_empty
    np.testing.assert_array_equal(means, ref_means)
    np.testing.assert_array_equal(assignment.labels, ref_labels)
    assert assignment.inertia == ref_inertia


def test_kmeans_validation():
    lat = blobs()
    with pytest.raises(KTooLargeError):
        kmeans_fit(lat, len(lat) + 1, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(lat, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(lat[:, 0], 2, seed=0)
    bad = lat.copy()
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        kmeans_fit(bad, 2, seed=0)


def test_cluster_weights_hand_example():
    # clusters 0,1,2 contain 3,2,1 samples; only cluster 0's samples sit
    # on the dense mode, so its raw count is 3 and weight 1/4
    e = np.eye(3)
    labels = np.array([0, 0, 0, 1, 1, 2])
    embeddings = np.vstack([e[0], e[0], e[0], e[1], e[1], e[2]])
    w = compute_cluster_weights(labels, 3, embeddings, e[0][None, :], r0=0.25)
    raw = np.array([1 / 4, 1 / 1, 1 / 1])
    np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-15)


def test_cluster_weights_sum_over_modes():
    # a sample inside the radius of two modes contributes twice
    e = np.eye(4)
    labels = np.array([0, 1])
    embeddings = np.vstack([e[0], e[1]])
    modes = np.vstack([e[0], e[0]])
    w = compute_cluster_weights(labels, 2, embeddings, modes, r0=0.25)
    raw = np.array([1 / 3, 1 / 1])
    np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-15)


def test_cluster_weights_match_the_add_at_counts_bit_for_bit():
    # two modes whose radii overlap: a sample near both counts twice
    rng = np.random.default_rng(21)
    e = np.eye(8)
    modes = np.vstack([e[0], np.cos(0.2) * e[0] + np.sin(0.2) * e[1]])
    emb = np.vstack([modes[rng.integers(0, 2, 300)] + rng.normal(size=(300, 8)) * 0.05,
                     rng.normal(size=(700, 8))])
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = rng.integers(0, 7, 1000)
    per_mode = neighbor_counts(emb, modes, 0.25)
    assert np.any(per_mode == 2) and np.any(per_mode == 1)
    counts = np.zeros(7, dtype=np.int64)
    np.add.at(counts, labels, per_mode)
    want = 1.0 / (counts + 1.0)
    want = want / np.sum(want)
    got = compute_cluster_weights(labels, 7, emb, modes, 0.25)
    assert got.tobytes() == want.tobytes()


def test_cluster_weights_validation():
    e = np.eye(2)
    with pytest.raises(EmptyModeListError):
        compute_cluster_weights(np.array([0, 1]), 2, e, np.empty((0, 2)), 0.25)
    with pytest.raises(EmptyClusterError):
        compute_cluster_weights(np.array([0, 0]), 2, e, e[0][None, :], 0.25)


def test_covariance_pooled_within_cluster():
    rng = np.random.default_rng(5)
    lat = rng.normal(size=(500, 3)) * np.array([1.0, 2.0, 0.5])
    means, assignment = kmeans_fit(lat, 4, seed=1)
    var = estimate_covariance(lat, assignment.labels, means)
    residual = lat - means[assignment.labels]
    np.testing.assert_allclose(var, (residual ** 2).sum(axis=0) / (500 - 4), atol=1e-12)
    with pytest.raises(DegenerateDataError):
        estimate_covariance(lat[:4], assignment.labels[:4], means)


def test_covariance_floor_warns():
    lat = np.zeros((10, 2))
    lat[:, 1] = np.arange(10.0)
    means = np.array([[0.0, 4.5]])
    labels = np.zeros(10, dtype=np.int64)
    with pytest.warns(RuntimeWarning, match="floored"):
        var = estimate_covariance(lat, labels, means)
    assert var[0] == 1e-12 and var[1] > 1.0


def test_mixture_validate():
    good = MixtureModel(means=np.zeros((2, 3)), variances=np.ones(3),
                        weights=np.array([0.5, 0.5]))
    good.validate()
    with pytest.raises(ValueError):
        MixtureModel(np.zeros((2, 3)), np.ones(2), np.array([0.5, 0.5])).validate()
    with pytest.raises(ValueError):
        MixtureModel(np.zeros((2, 3)), np.ones(3), np.array([0.9, 0.2])).validate()
    with pytest.raises(ValueError):
        MixtureModel(np.zeros((2, 3)), -np.ones(3), np.array([0.5, 0.5])).validate()


def test_sample_calibrated_component_frequencies():
    model = MixtureModel(means=np.array([[-50.0, 0.0], [50.0, 0.0], [0.0, 50.0]]),
                         variances=np.ones(2) * 0.01,
                         weights=np.array([0.6, 0.3, 0.1]))
    n = 30_000
    draws = sample_calibrated(model, n, seed=9)
    comp = np.argmin(((draws[:, None, :] - model.means[None]) ** 2).sum(axis=2), axis=1)
    freq = np.bincount(comp, minlength=3) / n
    sigma = np.sqrt(np.array([0.6, 0.3, 0.1]) * np.array([0.4, 0.7, 0.9]) / n)
    assert np.all(np.abs(freq - model.weights) <= 5 * sigma)
    # components come from the component stream's uniforms verbatim
    u = CounterStream(9, STREAM_GMM_COMPONENT).uniforms(0, n)
    expect = np.minimum(np.searchsorted(np.cumsum(model.weights), u, side="right"), 2)
    np.testing.assert_array_equal(comp, expect)


def test_sample_calibrated_absolute_addressing():
    model = MixtureModel(means=np.array([[0.0], [8.0]]), variances=np.array([0.5]),
                         weights=np.array([0.25, 0.75]))
    whole = sample_calibrated(model, 100, seed=4)
    split = np.vstack([sample_calibrated(model, 35, seed=4),
                       sample_calibrated(model, 65, seed=4, start=35)])
    np.testing.assert_array_equal(whole, split)
    with pytest.raises(ValueError):
        sample_calibrated(model, 0, seed=4)


def test_mixture_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    model = MixtureModel(means=rng.normal(size=(4, 3)),
                         variances=np.abs(rng.normal(size=3)) + 0.1,
                         weights=np.array([0.1, 0.2, 0.3, 0.4]),
                         source_seed=1234)
    path = tmp_path / "m.json"
    save_mixture(str(path), model, provenance={"note": "test"})
    back = load_mixture(str(path))
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.variances, model.variances)
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.source_seed == 1234
    (tmp_path / "bad.json").write_text('{"kind": "other"}')
    with pytest.raises(InvalidConfigError):
        load_mixture(str(tmp_path / "bad.json"))
    (tmp_path / "bad.json").write_text('[1]')
    with pytest.raises(InvalidConfigError):
        load_mixture(str(tmp_path / "bad.json"))
    (tmp_path / "bad.json").write_text('{"kind": "mixture", "means": {"a": 1}}')
    with pytest.raises(InvalidConfigError):
        load_mixture(str(tmp_path / "bad.json"))
    # k and latent_dim, where the file states them, must be the shape of its means
    doc = json.loads(path.read_text())
    for field, value in (("k", 3), ("latent_dim", 4), ("k", 4.0), ("latent_dim", True)):
        (tmp_path / "bad.json").write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(InvalidConfigError, match=field):
            load_mixture(str(tmp_path / "bad.json"))
    # numbers of another type are refused, not coerced
    for field, value in (("means", [["1.0", 0.0]] * 4), ("weights", [True, 0.2, 0.3, 0.4]),
                         ("variances", [1.0, None, 1.0]), ("source_seed", "1234")):
        (tmp_path / "bad.json").write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(InvalidConfigError, match=field):
            load_mixture(str(tmp_path / "bad.json"))


def test_calibrate_gmm_downweights_dense_cluster():
    model = build_synthetic_model(
        2, 16, 3, background=[{"weight": 1.0, "spread": 10.0}],
        planted=[{"mass": 0.2, "spread": 0.0, "latent_norm": 0.0}])
    src = SyntheticSource(model)
    mode = model.planted[0].center
    mix = calibrate_gmm(src, mode[None, :], seed=5, k=8, n_fit=4000, source_seed=3)
    assert mix.k == 8 and mix.latent_dim == 2 and mix.source_seed == 3
    # clusters near the origin (inside the planted ball) carry low weight
    origin_cluster = int(np.argmin((mix.means ** 2).sum(axis=1)))
    assert mix.weights[origin_cluster] < 1.0 / 8 / 4
    with pytest.raises(EmptyModeListError):
        calibrate_gmm(src, np.empty((0, 16)), seed=5, k=8, n_fit=1000)


def _calibration_source():
    model = build_synthetic_model(
        2, 32, 7, background=[{"weight": 1.0, "spread": 10.0}],
        planted=[{"mass": 0.05, "spread": 0.0, "latent_norm": 3.0}])
    return SyntheticSource(model), model.planted[0].center[None, :]


def test_calibrate_gmm_bits_do_not_depend_on_the_fit_batch(monkeypatch):
    # the fit set is embedded and counted one batch at a time; the hit
    # counts are whole numbers decided per pair, so any batch gives the
    # weights of compute_cluster_weights over the whole float64 fit set
    import bbgc.source as sources
    src, modes = _calibration_source()
    n_fit, k = 4000, 8
    base = calibrate_gmm(src, modes, seed=5, k=k, n_fit=n_fit)
    sizes = []
    embed = src.embed
    monkeypatch.setattr(src, "embed", lambda z: (sizes.append(len(z)), embed(z))[1])
    monkeypatch.setattr(sources, "_GENERATE_ROWS", 7)
    small = calibrate_gmm(src, modes, seed=5, k=k, n_fit=n_fit)
    assert sizes == [7] * (n_fit // 7) + [n_fit % 7]
    latents = sample_latents(n_fit, 2, 5, STREAM_FIT)
    means, assignment = kmeans_fit(latents, k, 5)
    weights = compute_cluster_weights(assignment.labels, k, embed(latents)[0], modes, 0.25)
    assert weights.min() < weights.max()   # the planted mode's clusters weigh less
    for model in (base, small):
        assert model.means.tobytes() == means.tobytes()
        assert model.variances.tobytes() == base.variances.tobytes()
        assert model.weights.tobytes() == weights.tobytes()


def test_calibrate_gmm_memory_holds_no_fit_set_embeddings():
    # 10**5 fit rows of embed 32 are 24.4 MiB as float64, and the scan's
    # float32 copy of them 12.2 MiB more: calibrate held both (41.7 MiB)
    src, modes = _calibration_source()
    tracemalloc.start()
    try:
        calibrate_gmm(src, modes, seed=7, k=64, n_fit=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


def test_empty_mode_list_raises_before_sampling():
    # np.atleast_2d([]) has shape (1, 0): one mode of width 0, not none
    class Unsampled:
        latent_dim = 2
        embed_dim = 16

        def embed(self, latents):
            pytest.fail("the source was sampled")
    for modes in ([], np.asarray([]), np.empty((0, 16))):
        with pytest.raises(EmptyModeListError):
            calibrate_gmm(Unsampled(), modes, seed=5, k=4, n_fit=200)
        with pytest.raises(EmptyModeListError):
            compute_cluster_weights(np.array([0, 1]), 2, np.eye(2), modes, 0.25)


def test_calibrate_gmm_checks_the_unit_norm_contract():
    class Half:
        latent_dim = 2
        embed_dim = 16

        def embed(self, latents):
            emb = np.zeros((len(latents), 16))
            emb[:, 0] = 0.5
            return emb, None
    with pytest.raises(MalformedResponseError):
        calibrate_gmm(Half(), np.eye(16)[:1], seed=5, k=4, n_fit=200)
