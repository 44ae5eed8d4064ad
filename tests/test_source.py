"""Generator sources: synthetic testbed, wire framing, child and HTTP adapters."""

import http.server
import io
import json
import sys
import threading

import numpy as np
import pytest

from bbgc import store as store_format
from bbgc.errors import (
    InvalidConfigError,
    MalformedResponseError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from bbgc.source import (
    RemoteSource,
    SourceSpec,
    SubprocessSource,
    SyntheticSource,
    build_synthetic_model,
    generate,
    load_source_spec,
    open_source,
    pack_frame,
    run_worker,
    sample_latents,
    unpack_frame,
)

BG = [{"weight": 1.0, "spread": 10.0}]


def synth(latent_dim=8, embed_dim=16, seed=5, background=BG, planted=()):
    return SyntheticSource(build_synthetic_model(
        latent_dim, embed_dim, seed, background=background, planted=planted))


def f32(a):
    return np.asarray(a).astype(np.float32).astype(np.float64)


# -- latent sampling -----------------------------------------------------------

def test_sample_latents_absolute_addressing():
    whole = sample_latents(100, 6, seed=3)
    head = sample_latents(40, 6, seed=3)
    tail = sample_latents(60, 6, seed=3, start=40)
    np.testing.assert_array_equal(np.vstack([head, tail]), whole)


def test_sample_latents_validation():
    with pytest.raises(ValueError):
        sample_latents(0, 4, seed=0)
    with pytest.raises(ValueError):
        sample_latents(4, 0, seed=0)


# -- synthetic model construction ----------------------------------------------

def test_build_validation_errors():
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(0, 8, 0, background=BG)
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 1, 0, background=BG)
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"weight": -1.0}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"weight": 0.0}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"spread": -0.1}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=BG, planted=[{"mass": 1.5}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=BG,
                              planted=[{"mass": 0.6}, {"mass": 0.6}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"center": [1.0, 0.0]}])


def test_build_rejects_overlapping_balls():
    # both anchored near the origin with sizeable mass: balls intersect
    with pytest.raises(InvalidConfigError, match="overlap"):
        build_synthetic_model(4, 8, 0, background=BG, planted=[
            {"mass": 0.3, "latent_anchor": [0.0, 0.0, 0.0, 0.0]},
            {"mass": 0.3, "latent_anchor": [0.1, 0.0, 0.0, 0.0]},
        ])


def test_build_derived_geometry_is_deterministic():
    m1 = build_synthetic_model(6, 12, 42, background=[{"weight": 1.0}],
                               planted=[{"mass": 0.1}])
    m2 = build_synthetic_model(6, 12, 42, background=[{"weight": 1.0}],
                               planted=[{"mass": 0.1}])
    np.testing.assert_array_equal(m1.background[0].center, m2.background[0].center)
    np.testing.assert_array_equal(m1.planted[0].latent_anchor, m2.planted[0].latent_anchor)
    assert abs(np.linalg.norm(m1.planted[0].center) - 1.0) < 1e-12
    assert abs(np.linalg.norm(m1.planted[0].latent_anchor) - np.sqrt(6)) < 1e-9


def test_latent_norm_controls_anchor_placement():
    m = build_synthetic_model(6, 12, 42, background=BG,
                              planted=[{"mass": 0.1, "latent_norm": 0.0}])
    assert np.linalg.norm(m.planted[0].latent_anchor) == 0.0
    m2 = build_synthetic_model(6, 12, 42, background=BG,
                               planted=[{"mass": 0.1, "latent_norm": 2.5}])
    assert abs(np.linalg.norm(m2.planted[0].latent_anchor) - 2.5) < 1e-9


# -- synthetic embedding behaviour ----------------------------------------------

def test_planted_ball_mass_matches_quantile():
    # fraction of standard-normal latents landing in the ball ~ Binomial(n, mass)
    mass, n = 0.05, 20_000
    src = synth(planted=[{"mass": mass, "spread": 0.0}])
    lat = sample_latents(n, 8, seed=17)
    emb, _ = src.embed(lat)
    center = src.model.planted[0].center
    hits = int(np.sum(np.all(emb == center, axis=1)))
    sigma = np.sqrt(n * mass * (1 - mass))
    assert abs(hits - n * mass) <= 5 * sigma


def test_spread_zero_copies_center_exactly():
    src = synth(background=[{"weight": 1.0, "spread": 0.0}])
    lat = sample_latents(50, 8, seed=1)
    emb, refs = src.embed(lat)
    assert refs is None
    np.testing.assert_array_equal(emb, np.broadcast_to(src.model.background[0].center, emb.shape))


def test_embeddings_are_unit_norm():
    src = synth(planted=[{"mass": 0.2, "spread": 0.3}])
    emb, _ = src.embed(sample_latents(500, 8, seed=2))
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_embed_is_pure_and_batch_invariant():
    src = synth(planted=[{"mass": 0.1, "spread": 0.2}])
    lat = sample_latents(300, 8, seed=9)
    whole, _ = src.embed(lat)
    parts = np.vstack([src.embed(lat[:113])[0], src.embed(lat[113:])[0]])
    np.testing.assert_array_equal(whole, parts)
    perm = np.random.default_rng(0).permutation(300)
    shuffled, _ = src.embed(lat[perm])
    np.testing.assert_array_equal(shuffled, whole[perm])


def test_background_mixture_frequencies():
    src = synth(background=[{"weight": 3.0, "spread": 0.0},
                            {"weight": 1.0, "spread": 0.0}])
    n = 8000
    emb, _ = src.embed(sample_latents(n, 8, seed=4))
    c0 = src.model.background[0].center
    hits = int(np.sum(np.all(emb == c0, axis=1)))
    sigma = np.sqrt(n * 0.75 * 0.25)
    assert abs(hits - n * 0.75) <= 5 * sigma


def test_embed_rejects_wrong_latent_dim():
    src = synth()
    with pytest.raises(MalformedResponseError):
        src.embed(np.zeros((3, 5)))


def test_generate_rejects_non_unit_sources():
    class Bad:
        def embed(self, lat):
            return np.full((len(lat), 4), 0.9), None
    with pytest.raises(MalformedResponseError):
        generate(Bad(), np.zeros((2, 3)))


# -- wire framing ---------------------------------------------------------------

def test_frame_round_trip():
    lat = np.random.default_rng(0).normal(size=(17, 5))
    blob = pack_frame(lat, as_latents=True)
    latent_dim, embed_dim, got_lat, got_emb, refs = unpack_frame(blob)
    assert (latent_dim, embed_dim) == (5, 0)
    np.testing.assert_array_equal(got_lat, f32(lat))
    assert got_emb.shape == (17, 0) and refs is None

    emb = np.random.default_rng(1).normal(size=(4, 9))
    latent_dim, embed_dim, _, got_emb, _ = unpack_frame(pack_frame(emb, as_latents=False))
    assert (latent_dim, embed_dim) == (0, 9)
    np.testing.assert_array_equal(got_emb, f32(emb))


def test_unpack_frame_rejects_garbage():
    with pytest.raises(MalformedResponseError):
        unpack_frame(b"short")
    with pytest.raises(MalformedResponseError):
        unpack_frame(b"XXXX" + bytes(28))
    good = pack_frame(np.zeros((3, 2)), as_latents=True)
    with pytest.raises(MalformedResponseError, match="truncated"):
        unpack_frame(good[:-5])


def test_unpack_frame_rejects_oversized_count():
    good = pack_frame(np.zeros((3, 2)), as_latents=True)
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION, 2, 0, 2 ** 40, 0)
    with pytest.raises(MalformedResponseError, match="truncated: 3 of 1099511627776"):
        unpack_frame(head + good[store_format.HEADER.size:])


# -- worker loop ----------------------------------------------------------------

def test_run_worker_round_trip():
    src = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat1 = sample_latents(20, 4, seed=3)
    lat2 = sample_latents(7, 4, seed=3, start=20)
    stdin = io.BytesIO(pack_frame(lat1, as_latents=True) + pack_frame(lat2, as_latents=True))
    stdout = io.BytesIO()
    run_worker(src, stdin, stdout)
    blob = stdout.getvalue()
    _, _, _, emb1, _ = unpack_frame(blob)
    consumed = len(pack_frame(emb1, as_latents=False))
    _, _, _, emb2, _ = unpack_frame(blob[consumed:])
    np.testing.assert_array_equal(emb1, f32(src.embed(f32(lat1))[0]))
    np.testing.assert_array_equal(emb2, f32(src.embed(f32(lat2))[0]))


def test_run_worker_rejects_dim_mismatch():
    src = synth(latent_dim=4, embed_dim=6)
    stdin = io.BytesIO(pack_frame(np.zeros((2, 3)), as_latents=True))
    with pytest.raises(MalformedResponseError, match="latent_dim"):
        run_worker(src, stdin, io.BytesIO())


# -- subprocess adapter ----------------------------------------------------------

WORKER_CHILD = """
import argparse, sys
from bbgc.source import SyntheticSource, build_synthetic_model, run_worker
p = argparse.ArgumentParser()
p.add_argument("--latent-dim", type=int, required=True)
p.add_argument("--embed-dim", type=int, required=True)
a = p.parse_args()
model = build_synthetic_model(a.latent_dim, a.embed_dim, 5,
                              background=[{"weight": 1.0, "spread": 10.0}],
                              planted=[{"mass": 0.1, "spread": 0.1}])
run_worker(SyntheticSource(model), sys.stdin.buffer, sys.stdout.buffer)
"""


def test_subprocess_source_round_trip():
    direct = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat = sample_latents(90, 4, seed=8)
    with SubprocessSource([sys.executable, "-c", WORKER_CHILD], 4, 6,
                          batch_size=40) as src:
        emb, refs = src.embed(lat)
    assert refs is None
    # the child sees f32 latents and its reply is f32 on the wire
    np.testing.assert_array_equal(emb, f32(direct.embed(f32(lat))[0]))


def test_subprocess_source_timeout():
    child = "import sys, time\nsys.stdin.buffer.read(32)\ntime.sleep(30)\n"
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=0.5) as src:
        with pytest.raises(SourceTimeoutError):
            src.embed(np.zeros((2, 4)))


def test_subprocess_source_reports_child_stderr():
    child = ("import sys\n"
             "sys.stderr.write('deliberate child failure\\n')\n"
             "sys.stderr.flush()\n"
             "sys.exit(3)\n")
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=10.0) as src:
        with pytest.raises(SourceUnavailableError, match="deliberate child failure"):
            src.embed(np.zeros((2, 4)))


def test_subprocess_source_missing_binary():
    with SubprocessSource(["/nonexistent-worker-binary"], 4, 6) as src:
        with pytest.raises(SourceUnavailableError):
            src.embed(np.zeros((1, 4)))


def test_subprocess_source_validation():
    with pytest.raises(InvalidConfigError):
        SubprocessSource([], 4, 6)
    with pytest.raises(InvalidConfigError):
        SubprocessSource(["x"], 0, 6)


# -- remote adapter ---------------------------------------------------------------

class _Endpoint(http.server.BaseHTTPRequestHandler):
    source = None          # class-level: set per test
    fail_first = 0         # respond 500 to this many requests
    mode = "ok"            # ok | reject | garbage | wrong-dim
    requests = 0

    def log_message(self, *a):
        pass

    def do_POST(self):
        cls = type(self)
        cls.requests += 1
        if cls.mode == "reject":
            self.send_error(404)
            return
        if cls.requests <= cls.fail_first:
            self.send_error(503)
            return
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if cls.mode == "garbage":
            payload = b"not a frame"
        else:
            _, _, lat, _, _ = unpack_frame(body)
            emb, _ = cls.source.embed(lat)
            if cls.mode == "wrong-dim":
                emb = emb[:, :-1]
            payload = pack_frame(emb, as_latents=False)
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def endpoint():
    _Endpoint.source = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    _Endpoint.fail_first = 0
    _Endpoint.mode = "ok"
    _Endpoint.requests = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    thread.join()


def test_remote_source_round_trip(endpoint):
    lat = sample_latents(60, 4, seed=6)
    src = RemoteSource(endpoint, 4, 6, batch_size=25)
    emb, _ = src.embed(lat)
    np.testing.assert_array_equal(emb, f32(_Endpoint.source.embed(f32(lat))[0]))
    assert _Endpoint.requests == 3   # 25 + 25 + 10


def test_remote_source_retries_transient_errors(endpoint):
    _Endpoint.fail_first = 2
    src = RemoteSource(endpoint, 4, 6, retries=3, backoff=0.01)
    emb, _ = src.embed(sample_latents(5, 4, seed=6))
    assert emb.shape == (5, 6)
    assert _Endpoint.requests == 3


def test_remote_source_gives_up_after_retries(endpoint):
    _Endpoint.fail_first = 99
    src = RemoteSource(endpoint, 4, 6, retries=2, backoff=0.01)
    with pytest.raises(SourceUnavailableError, match="after 3 attempts"):
        src.embed(sample_latents(5, 4, seed=6))
    assert _Endpoint.requests == 3


def test_remote_source_client_errors_do_not_retry(endpoint):
    _Endpoint.mode = "reject"
    src = RemoteSource(endpoint, 4, 6, retries=3, backoff=0.01)
    with pytest.raises(SourceUnavailableError, match="HTTP 404"):
        src.embed(sample_latents(5, 4, seed=6))
    assert _Endpoint.requests == 1


def test_remote_source_malformed_reply(endpoint):
    _Endpoint.mode = "garbage"
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01)
    with pytest.raises(MalformedResponseError):
        src.embed(sample_latents(5, 4, seed=6))


def test_remote_source_wrong_dim_reply(endpoint):
    _Endpoint.mode = "wrong-dim"
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01)
    with pytest.raises(MalformedResponseError, match="embed_dim"):
        src.embed(sample_latents(5, 4, seed=6))


def test_remote_source_validation():
    with pytest.raises(InvalidConfigError):
        RemoteSource("ftp://x", 4, 6)
    with pytest.raises(InvalidConfigError):
        RemoteSource("http://x", 0, 6)


# -- source specs ------------------------------------------------------------------

def test_load_source_spec(tmp_path):
    path = tmp_path / "src.json"
    path.write_text(json.dumps({
        "kind": "synthetic", "latent_dim": 8, "embed_dim": 16, "seed": 7,
        "parameters": {"background": [{"weight": 1.0, "spread": 10.0}]},
    }))
    spec = load_source_spec(str(path))
    assert spec == SourceSpec("synthetic", 8, 16, 7,
                              {"background": [{"weight": 1.0, "spread": 10.0}]})
    src = open_source(spec)
    assert src.latent_dim == 8 and src.embed_dim == 16


def test_load_source_spec_errors(tmp_path):
    cases = [
        {"kind": "synthetic", "latent_dim": 8},                        # no embed_dim
        {"kind": "mystery", "latent_dim": 8, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": 0, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 1},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 16, "seed": -1},
    ]
    for i, doc in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfigError):
            load_source_spec(str(path))


def test_open_source_remote_needs_url():
    spec = SourceSpec("remote", 4, 8, 0, {})
    with pytest.raises(InvalidConfigError):
        open_source(spec)
