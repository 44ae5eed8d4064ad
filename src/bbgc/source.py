"""Black-box generator sources.

A source turns latent codes into unit-norm identity embeddings and is
treated strictly as a function: same latent in, same embedding out.
Three kinds exist:

* ``synthetic``  — an in-process testbed with planted dense modes whose
  ground truth (component masses, centers) is known exactly, so every
  downstream statistic can be checked against analysis;
* ``subprocess`` — a child process speaking the binary store framing on
  stdin/stdout;
* ``remote``     — an HTTP endpoint speaking the same framing per POST.

The synthetic model selects a planted mode when the latent falls inside
a Euclidean ball around that mode's latent anchor; the ball radius is
chosen so the standard-normal measure of the ball equals the configured
mass exactly (noncentral chi-square quantile).  Everything else about a
latent (background component choice, angular noise) comes from hashing
the latent's bits, so generation is order-independent and identical no
matter how work is batched or parallelized.
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import ndtri
from scipy.stats import chi2, ncx2

from . import store as store_format
from .embedding import normalize, normalize_rows
from .errors import (
    InvalidConfigError,
    MalformedResponseError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from .jsonutil import read_json
from .rng import (
    STREAM_MODEL,
    STREAM_MODEL_LATENT,
    STREAM_POOL,
    CounterStream,
    derive_seed,
    hash_latents,
    hash_to_unit,
    splitmix64,
)

_SELECT_SALT = 0x53454C4543544F52   # distinct hash domains per purpose
_NOISE_SALT = 0x4E4F49534553414C54 % (1 << 64)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_UNIT_NORM_TOL = 1e-4   # 32-bit wire format tolerance


def sample_latents(n: int, latent_dim: int, seed: int,
                   stream: int = STREAM_POOL, start: int = 0) -> np.ndarray:
    """n standard-normal latent rows, addressed by absolute row index.

    Row ``start + i`` depends only on (seed, stream, row, column), so a
    batch split across any number of workers reproduces bit-identically.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if latent_dim < 1:
        raise ValueError(f"latent_dim must be >= 1, got {latent_dim}")
    return CounterStream(seed, stream).normal_rows(start, n, latent_dim)


# -- synthetic testbed --------------------------------------------------------

@dataclass(frozen=True)
class BackgroundComponent:
    weight: float
    spread: float
    center: np.ndarray   # unit vector, embed_dim


@dataclass(frozen=True)
class PlantedMode:
    mass: float
    spread: float
    center: np.ndarray          # unit vector, embed_dim
    latent_anchor: np.ndarray   # latent_dim
    ball_radius2: float         # squared latent ball radius with N(0,I)-mass = mass


@dataclass(frozen=True)
class SyntheticModel:
    latent_dim: int
    embed_dim: int
    seed: int
    background: tuple[BackgroundComponent, ...]
    planted: tuple[PlantedMode, ...]
    weights_cum: np.ndarray = field(repr=False, default=None)


def _ball_radius2(mass: float, latent_dim: int, anchor: np.ndarray) -> float:
    """Squared radius giving the ball around ``anchor`` N(0,I)-mass ``mass``."""
    if mass <= 0.0:
        return 0.0
    if mass >= 1.0:
        return math.inf
    nc = float(np.dot(anchor, anchor))
    if nc == 0.0:
        return float(chi2.ppf(mass, df=latent_dim))
    return float(ncx2.ppf(mass, df=latent_dim, nc=nc))


def build_synthetic_model(latent_dim: int, embed_dim: int, seed: int,
                          background: Sequence[dict],
                          planted: Sequence[dict] = ()) -> SyntheticModel:
    """Validate a synthetic config and derive any unspecified geometry.

    Background centers and planted centers/latent anchors left null are
    derived deterministically from the seed, so a config file can stay
    tiny while the model is fully pinned.
    """
    if latent_dim < 1:
        raise InvalidConfigError(f"latent_dim must be >= 1, got {latent_dim}")
    if embed_dim < 2:
        raise InvalidConfigError(f"embed_dim must be >= 2, got {embed_dim}")
    if not background:
        raise InvalidConfigError("need at least one background component")

    center_rows = CounterStream(seed, STREAM_MODEL)
    anchor_rows = CounterStream(seed, STREAM_MODEL_LATENT)

    def derived_center(row: int) -> np.ndarray:
        return normalize(center_rows.normal_rows(row, 1, embed_dim)[0])

    bg: list[BackgroundComponent] = []
    for i, item in enumerate(background):
        weight = float(item.get("weight", 1.0))
        spread = float(item.get("spread", 0.0))
        if weight < 0 or not math.isfinite(weight):
            raise InvalidConfigError(f"background[{i}] weight {weight}")
        if spread < 0 or not math.isfinite(spread):
            raise InvalidConfigError(f"background[{i}] spread {spread}")
        raw = item.get("center")
        center = derived_center(i) if raw is None else normalize(np.asarray(raw, dtype=np.float64))
        if center.shape != (embed_dim,):
            raise InvalidConfigError(f"background[{i}] center has dim {center.shape}")
        bg.append(BackgroundComponent(weight=weight, spread=spread, center=center))
    total_w = sum(c.weight for c in bg)
    if total_w <= 0:
        raise InvalidConfigError("background weights sum to zero")

    modes: list[PlantedMode] = []
    mass_sum = 0.0
    for j, item in enumerate(planted):
        mass = float(item.get("mass", 0.0))
        spread = float(item.get("spread", 0.0))
        if not 0.0 <= mass <= 1.0:
            raise InvalidConfigError(f"planted[{j}] mass {mass} outside [0, 1]")
        if spread < 0 or not math.isfinite(spread):
            raise InvalidConfigError(f"planted[{j}] spread {spread}")
        mass_sum += mass
        raw = item.get("center")
        center = (derived_center(len(bg) + j) if raw is None
                  else normalize(np.asarray(raw, dtype=np.float64)))
        if center.shape != (embed_dim,):
            raise InvalidConfigError(f"planted[{j}] center has dim {center.shape}")
        raw_anchor = item.get("latent_anchor")
        if raw_anchor is None:
            direction = normalize(anchor_rows.normal_rows(j, 1, latent_dim)[0])
            norm = float(item.get("latent_norm", math.sqrt(latent_dim)))
            anchor = direction * norm
        else:
            anchor = np.asarray(raw_anchor, dtype=np.float64)
        if anchor.shape != (latent_dim,) or not np.all(np.isfinite(anchor)):
            raise InvalidConfigError(f"planted[{j}] latent anchor invalid")
        modes.append(PlantedMode(mass=mass, spread=spread, center=center,
                                 latent_anchor=anchor,
                                 ball_radius2=_ball_radius2(mass, latent_dim, anchor)))
    if mass_sum > 1.0 + 1e-12:
        raise InvalidConfigError(f"planted masses sum to {mass_sum} > 1")

    # Masses are exact only if the balls are pairwise disjoint.
    for a in range(len(modes)):
        for b in range(a + 1, len(modes)):
            ra, rb = modes[a].ball_radius2, modes[b].ball_radius2
            if ra == 0.0 or rb == 0.0:
                continue
            if math.isinf(ra) or math.isinf(rb):
                raise InvalidConfigError(f"planted balls {a} and {b} overlap")
            gap = float(np.linalg.norm(modes[a].latent_anchor - modes[b].latent_anchor))
            if gap <= math.sqrt(ra) + math.sqrt(rb):
                raise InvalidConfigError(f"planted balls {a} and {b} overlap")

    w = np.array([c.weight for c in bg], dtype=np.float64) / total_w
    return SyntheticModel(latent_dim=latent_dim, embed_dim=embed_dim, seed=int(seed),
                          background=tuple(bg), planted=tuple(modes),
                          weights_cum=np.cumsum(w))


class SyntheticSource:
    """Deterministic planted-collapse generator."""

    kind = "synthetic"

    def __init__(self, model: SyntheticModel):
        self.model = model
        self._select_seed = derive_seed(model.seed, _SELECT_SALT)
        self._noise_seed = derive_seed(model.seed, _NOISE_SALT)

    @property
    def latent_dim(self) -> int:
        return self.model.latent_dim

    @property
    def embed_dim(self) -> int:
        return self.model.embed_dim

    def close(self) -> None:
        pass

    def _noise_rows(self, hashes: np.ndarray) -> np.ndarray:
        """Per-latent standard-normal noise, a pure function of the hash."""
        d = self.model.embed_dim
        cols = (np.arange(1, d + 1, dtype=np.uint64)) * _GOLDEN
        with np.errstate(over="ignore"):
            grid = hashes[:, None] + cols[None, :]
        return ndtri(hash_to_unit(splitmix64(grid)))

    def _perturb(self, center: np.ndarray, spread: float, noise: np.ndarray) -> np.ndarray:
        if spread == 0.0:
            return np.broadcast_to(center, noise.shape).copy()
        # reduce per row rather than via BLAS: gemv kernels round differently
        # depending on row count, which would make results batch-dependent
        coef = np.add.reduce(noise * center, axis=1)
        tangent = noise - np.outer(coef, center)
        return normalize_rows(center[None, :] + spread * tangent)

    def embed(self, latents: np.ndarray) -> tuple[np.ndarray, None]:
        m = self.model
        z = np.ascontiguousarray(latents, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != m.latent_dim:
            raise MalformedResponseError(
                f"latents shape {z.shape}, expected (*, {m.latent_dim})")
        n = z.shape[0]
        out = np.empty((n, m.embed_dim), dtype=np.float64)

        chosen = np.full(n, -1, dtype=np.int64)   # planted mode index or -1
        for j, mode in enumerate(m.planted):
            if mode.ball_radius2 == 0.0:
                continue
            if math.isinf(mode.ball_radius2):
                hit = chosen < 0
            else:
                d2 = np.sum((z - mode.latent_anchor) ** 2, axis=1)
                hit = (d2 <= mode.ball_radius2) & (chosen < 0)
            chosen[hit] = j

        background_rows = chosen < 0
        comp = np.empty(n, dtype=np.int64)
        if background_rows.any():
            u = hash_to_unit(hash_latents(self._select_seed, z[background_rows]))
            idx = np.searchsorted(m.weights_cum, u, side="right")
            comp[background_rows] = np.minimum(idx, len(m.background) - 1)

        noise_h = hash_latents(self._noise_seed, z)
        for j, mode in enumerate(m.planted):
            rows = chosen == j
            if not rows.any():
                continue
            noise = self._noise_rows(noise_h[rows]) if mode.spread else np.empty((int(rows.sum()), m.embed_dim))
            out[rows] = self._perturb(mode.center, mode.spread, noise)
        for b, component in enumerate(m.background):
            rows = background_rows & (comp == b)
            if not rows.any():
                continue
            noise = self._noise_rows(noise_h[rows]) if component.spread else np.empty((int(rows.sum()), m.embed_dim))
            out[rows] = self._perturb(component.center, component.spread, noise)
        return out, None


# -- wire framing shared by subprocess and remote adapters --------------------

def pack_frame(vectors: np.ndarray, as_latents: bool) -> bytes:
    """One store-framed batch: latent-only frames zero embed_dim and vice versa."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    n, dim = vectors.shape
    latent_dim, embed_dim = (dim, 0) if as_latents else (0, dim)
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION,
                                    latent_dim, embed_dim, n, 0)
    body = np.zeros((n, 4 * dim + 4), dtype=np.uint8)
    body[:, :4 * dim] = vectors.view(np.uint8)
    return head + body.tobytes()


def unpack_frame(blob: bytes) -> tuple[int, int, np.ndarray, np.ndarray, list[bytes] | None]:
    """(latent_dim, embed_dim, latents, embeddings, refs) from one frame."""
    if len(blob) < store_format.HEADER.size:
        raise MalformedResponseError(f"frame of {len(blob)} bytes has no header")
    magic, version, latent_dim, embed_dim, count, _seed = store_format.HEADER.unpack(
        blob[:store_format.HEADER.size])
    if magic != store_format.MAGIC or version != store_format.VERSION:
        raise MalformedResponseError(f"bad frame magic/version {magic!r}/{version}")
    lat, emb, refs, parsed = store_format.parse_records(
        memoryview(blob)[store_format.HEADER.size:], latent_dim, embed_dim, count)
    if parsed < count:
        raise MalformedResponseError(f"frame truncated: {parsed} of {count} records")
    return latent_dim, embed_dim, lat, emb, refs


def _frame_body_size(payload: memoryview, latent_dim: int, embed_dim: int,
                     count: int) -> int | None:
    """Bytes consumed by ``count`` records, or None if more data is needed."""
    fixed = 4 * latent_dim + 4 * embed_dim
    off = 0
    size = len(payload)
    for _ in range(count):
        if off + fixed + 4 > size:
            return None
        (ref_len,) = store_format.REF_LEN.unpack(payload[off + fixed:off + fixed + 4])
        off += fixed + 4 + ref_len
        if off > size:
            return None
    return off


def _validate_embeddings(emb: np.ndarray, embed_dim: int, n: int) -> np.ndarray:
    if emb.shape != (n, embed_dim):
        raise MalformedResponseError(
            f"expected {n} embeddings of dim {embed_dim}, got shape {emb.shape}")
    if not np.all(np.isfinite(emb)):
        raise MalformedResponseError("embeddings contain non-finite values")
    norms = np.linalg.norm(emb, axis=1)
    bad = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise MalformedResponseError(f"embedding {i} has norm {norms[i]:.6f}")
    return emb


class _BatchedSource:
    """Shared batching/pooling driver for the two adapters."""

    latent_dim: int
    embed_dim: int
    batch_size: int
    connections: int

    def _request(self, conn: int, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        raise NotImplementedError

    def embed(self, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        z = np.ascontiguousarray(latents, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise MalformedResponseError(
                f"latents shape {z.shape}, expected (*, {self.latent_dim})")
        n = z.shape[0]
        batches = [(i, z[lo:lo + self.batch_size])
                   for i, lo in enumerate(range(0, n, self.batch_size))]
        results: list[tuple[np.ndarray, list[bytes] | None]] = [None] * len(batches)
        if self.connections <= 1 or len(batches) <= 1:
            for i, chunk in batches:
                results[i] = self._request(0, chunk)
        else:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=self.connections) as pool:
                futures = [pool.submit(self._request, i % self.connections, chunk)
                           for i, chunk in batches]
                for i, fut in enumerate(futures):
                    results[i] = fut.result()
        embs = np.concatenate([r[0] for r in results]) if results else np.empty((0, self.embed_dim))
        refs: list[bytes] | None = None
        if any(r[1] is not None for r in results):
            refs = []
            for (emb, rf), (_, chunk) in zip(results, batches):
                refs.extend(rf if rf is not None else [b""] * len(chunk))
        return embs, refs


class SubprocessSource(_BatchedSource):
    """Child processes speaking the store framing on stdin/stdout."""

    kind = "subprocess"

    def __init__(self, argv: Sequence[str], latent_dim: int, embed_dim: int,
                 batch_size: int = 4096, timeout: float = 60.0, connections: int = 1):
        if latent_dim < 1 or embed_dim < 2:
            raise InvalidConfigError(f"bad dims {latent_dim}x{embed_dim}")
        if not argv:
            raise InvalidConfigError("subprocess source needs a command")
        self.latent_dim = int(latent_dim)
        self.embed_dim = int(embed_dim)
        self.batch_size = int(batch_size)
        self.timeout = float(timeout)
        self.connections = max(1, int(connections))
        self._argv = [str(a) for a in argv] + [
            "--latent-dim", str(latent_dim), "--embed-dim", str(embed_dim)]
        self._children: list[subprocess.Popen | None] = [None] * self.connections
        self._stderr: list = [None] * self.connections
        import threading
        self._locks = [threading.Lock() for _ in range(self.connections)]

    def _child(self, conn: int) -> subprocess.Popen:
        proc = self._children[conn]
        if proc is not None and proc.poll() is None:
            return proc
        err = tempfile.NamedTemporaryFile(prefix="bbgc-child-", suffix=".err", delete=False)
        try:
            proc = subprocess.Popen(self._argv, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err)
        except OSError as exc:
            err.close()
            raise SourceUnavailableError(f"cannot start {self._argv[0]}: {exc}") from exc
        self._children[conn] = proc
        self._stderr[conn] = err
        return proc

    def _fail(self, conn: int, reason: str) -> str:
        proc = self._children[conn]
        tail = ""
        if self._stderr[conn] is not None:
            try:
                with open(self._stderr[conn].name, "rb") as fh:
                    tail = fh.read()[-800:].decode("utf-8", "replace").strip()
            except OSError:
                pass
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        self._children[conn] = None
        return f"{reason}" + (f" (child stderr: {tail})" if tail else "")

    def _read_exactly(self, conn: int, fd: int, deadline: float) -> bytes:
        """Read one full response frame from the child's stdout."""
        sel = selectors.DefaultSelector()
        sel.register(fd, selectors.EVENT_READ)
        buf = bytearray()
        body_size: int | None = None
        header: tuple | None = None
        try:
            while True:
                if header is not None and body_size is not None and \
                        len(buf) >= store_format.HEADER.size + body_size:
                    return bytes(buf[:store_format.HEADER.size + body_size])
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise SourceTimeoutError(self._fail(conn, "child response timed out"))
                if not sel.select(budget):
                    continue
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise SourceUnavailableError(self._fail(conn, "child closed its stdout"))
                buf.extend(chunk)
                if header is None and len(buf) >= store_format.HEADER.size:
                    header = store_format.HEADER.unpack(buf[:store_format.HEADER.size])
                if header is not None:
                    body_size = _frame_body_size(
                        memoryview(buf)[store_format.HEADER.size:], header[2], header[3], header[4])
        finally:
            sel.close()

    def _request(self, conn: int, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        with self._locks[conn]:
            proc = self._child(conn)
            frame = pack_frame(latents, as_latents=True)
            deadline = time.monotonic() + self.timeout
            try:
                proc.stdin.write(frame)
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise SourceUnavailableError(self._fail(conn, f"child rejected input: {exc}")) from exc
            blob = self._read_exactly(conn, proc.stdout.fileno(), deadline)
        try:
            _lat_dim, embed_dim, _lat, emb, refs = unpack_frame(blob)
        except MalformedResponseError:
            self._fail(conn, "")
            raise
        if embed_dim != self.embed_dim:
            raise MalformedResponseError(
                f"child replied embed_dim {embed_dim}, expected {self.embed_dim}")
        return _validate_embeddings(emb, self.embed_dim, len(latents)), refs

    def close(self) -> None:
        for conn, proc in enumerate(self._children):
            if proc is None:
                continue
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self._children[conn] = None
        for err in self._stderr:
            if err is not None:
                err.close()
                try:
                    os.unlink(err.name)
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RemoteSource(_BatchedSource):
    """HTTP endpoint speaking the store framing per POST request."""

    kind = "remote"

    def __init__(self, url: str, latent_dim: int, embed_dim: int,
                 batch_size: int = 256, retries: int = 3, backoff: float = 0.25,
                 timeout: float = 30.0, connections: int = 1):
        if latent_dim < 1 or embed_dim < 2:
            raise InvalidConfigError(f"bad dims {latent_dim}x{embed_dim}")
        if not url.startswith(("http://", "https://")):
            raise InvalidConfigError(f"unsupported endpoint url {url!r}")
        self.url = url
        self.latent_dim = int(latent_dim)
        self.embed_dim = int(embed_dim)
        self.batch_size = int(batch_size)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = float(timeout)
        self.connections = max(1, int(connections))

    def _request(self, conn: int, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        frame = pack_frame(latents, as_latents=True)
        last: Exception | None = None
        timed_out = False
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            req = urllib.request.Request(self.url, data=frame, method="POST", headers={
                "Content-Type": "application/octet-stream"})
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    blob = resp.read()
                break
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500:
                    raise SourceUnavailableError(
                        f"endpoint rejected request: HTTP {exc.code}") from exc
                last = exc
            except TimeoutError as exc:
                last, timed_out = exc, True
            except urllib.error.URLError as exc:
                timed_out = isinstance(exc.reason, TimeoutError)
                last = exc
            except OSError as exc:
                last = exc
        else:
            if timed_out:
                raise SourceTimeoutError(f"endpoint timed out after {self.retries + 1} attempts") from last
            raise SourceUnavailableError(
                f"endpoint unreachable after {self.retries + 1} attempts: {last}") from last
        _lat_dim, embed_dim, _lat, emb, refs = unpack_frame(blob)
        if embed_dim != self.embed_dim:
            raise MalformedResponseError(
                f"endpoint replied embed_dim {embed_dim}, expected {self.embed_dim}")
        return _validate_embeddings(emb, self.embed_dim, len(latents)), refs

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- source specs --------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    kind: str
    latent_dim: int
    embed_dim: int
    seed: int
    parameters: dict


def load_source_spec(path: str) -> SourceSpec:
    raw = read_json(path)
    try:
        kind = raw["kind"]
        latent_dim = int(raw["latent_dim"])
        embed_dim = int(raw["embed_dim"])
        seed = int(raw.get("seed", 0))
        parameters = dict(raw.get("parameters", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: {exc!r}") from exc
    if kind not in ("synthetic", "subprocess", "remote"):
        raise InvalidConfigError(f"{path}: unknown source kind {kind!r}")
    if latent_dim < 1:
        raise InvalidConfigError(f"{path}: latent_dim must be >= 1")
    if embed_dim < 2:
        raise InvalidConfigError(f"{path}: embed_dim must be >= 2")
    if not 0 <= seed < 2 ** 64:
        raise InvalidConfigError(f"{path}: seed out of u64 range")
    return SourceSpec(kind=kind, latent_dim=latent_dim, embed_dim=embed_dim,
                      seed=seed, parameters=parameters)


def open_source(spec: SourceSpec):
    if spec.kind == "synthetic":
        model = build_synthetic_model(
            spec.latent_dim, spec.embed_dim, spec.seed,
            background=spec.parameters.get("background", [{"weight": 1.0, "spread": 10.0}]),
            planted=spec.parameters.get("planted", ()))
        return SyntheticSource(model)
    if spec.kind == "subprocess":
        p = spec.parameters
        return SubprocessSource(p.get("argv", ()), spec.latent_dim, spec.embed_dim,
                                batch_size=int(p.get("batch", 4096)),
                                timeout=float(p.get("timeout", 60.0)),
                                connections=int(p.get("connections", 1)))
    p = spec.parameters
    if "url" not in p:
        raise InvalidConfigError("remote source needs parameters.url")
    return RemoteSource(p["url"], spec.latent_dim, spec.embed_dim,
                        batch_size=int(p.get("batch", 256)),
                        retries=int(p.get("retries", 3)),
                        backoff=float(p.get("backoff", 0.25)),
                        timeout=float(p.get("timeout", 30.0)),
                        connections=int(p.get("connections", 1)))


def generate(source, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
    """Embed latents through a source; validates the unit-norm contract."""
    emb, refs = source.embed(latents)
    norms = np.linalg.norm(emb, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
        raise MalformedResponseError("source returned non-unit embeddings")
    return emb, refs


def run_worker(source, stdin, stdout) -> None:
    """Child side of the subprocess protocol: frames in, frames out, flush."""
    header_size = store_format.HEADER.size
    while True:
        head = stdin.read(header_size)
        if not head:
            return
        if len(head) < header_size:
            raise SourceUnavailableError("truncated request header")
        magic, version, latent_dim, embed_dim, count, _seed = store_format.HEADER.unpack(head)
        if magic != store_format.MAGIC or version != store_format.VERSION:
            raise MalformedResponseError("bad request frame")
        if latent_dim != source.latent_dim:
            raise MalformedResponseError(
                f"request latent_dim {latent_dim}, source has {source.latent_dim}")
        fixed = 4 * latent_dim + 4 * embed_dim + 4
        body = stdin.read(count * fixed)
        if len(body) < count * fixed:
            raise SourceUnavailableError("truncated request body")
        lat, _emb, _refs, parsed = store_format.parse_records(body, latent_dim, embed_dim, count)
        if parsed < count:
            raise MalformedResponseError("unparseable request body")
        emb, _ = source.embed(lat)
        stdout.write(pack_frame(emb, as_latents=False))
        stdout.flush()
