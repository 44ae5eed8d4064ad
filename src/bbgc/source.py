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

A frame is a store header and store records with one dim set to 0;
:mod:`bbgc.store` owns that format and its reader, and this module knows no
layout.  The worker's requests, both adapters' replies and
:func:`unpack_frame` all read through :func:`_read_frame`, the one place
where a bad frame header becomes a ``MalformedResponseError``.
Sources are context managers.  The adapters check only the framing of
each reply; :func:`non_unit_row` is the one rule on embedding values,
which :func:`generate` applies to every reply and the CLI to every store
that it analyses.

The synthetic model selects a planted mode when the latent falls inside
a Euclidean ball around that mode's latent anchor; the ball radius is
chosen so the standard-normal measure of the ball equals the configured
mass exactly: the chi-square quantile ``2 * gammaincinv(df / 2, mass)``
for an anchor at the origin, else the noncentral quantile
``chndtrix(mass, df, nc)``.  These are the ``scipy.special`` kernels
behind ``scipy.stats``' ``chi2.ppf`` and ``ncx2.ppf``, so the radii are
the same bits without that module's import cost.  Everything else about a
latent (background component choice, angular noise) comes from hashing
the latent's bits, so generation is order-independent and identical no
matter how work is batched or parallelized.  The synthetic embed works
through blocks of ``embedding.block_rows`` rows, and in pieces of those on
two arrays that each call allocates once; these bound its working memory.
Each row is computed alone, so its result does not depend on either.
"""

from __future__ import annotations

import io
import math
import os
import select
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import chndtrix, gammaincinv, ndtri

from . import store as store_format
from .embedding import block_rows, normalize, normalize_rows, row_dots
from .errors import (
    InvalidConfigError,
    MalformedResponseError,
    SourceTimeoutError,
    SourceUnavailableError,
    StoreFormatError,
)
from .jsonutil import CONTENT_ERRORS, json_field, read_json
from .rng import (
    STREAM_MODEL,
    STREAM_MODEL_LATENT,
    STREAM_POOL,
    _SPLITMIX_GAMMA,
    CounterStream,
    derive_seed,
    hash_latents,
    hash_to_unit,
    splitmix64,
)

_SELECT_SALT = 0x53454C4543544F52   # distinct hash domains per purpose
_NOISE_SALT = 0x4E4F49534553414C54 % (1 << 64)

_UNIT_NORM_TOL = 1e-4   # 32-bit wire format tolerance

_EMBED_ROWS = 4096   # rows per block of the synthetic embed, at most
_GENERATE_ROWS = 8192   # rows per generate call of a streamed set, at most

# The widest synthetic embedding: each derived center is drawn whole.
_MAX_SYNTHETIC_EMBED_DIM = 1 << 12

_MAX_LATENT_DIM = 1 << 16   # sample draws latents whole: 5 rows of 2**29 took 20 GiB
_MAX_WAIT_S = 86400.0   # one day: the longest a spec may make a source wait
_MAX_DOUBLINGS = 1023   # of the retry backoff: 2.0 ** 1023 is the largest float power of 2


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
        radius2 = float(2.0 * gammaincinv(latent_dim / 2.0, mass))
    else:
        radius2 = float(chndtrix(mass, latent_dim, nc))
    if not math.isfinite(radius2):   # chndtrix gives NaN for nc beyond ~1e12
        raise InvalidConfigError(
            f"no finite ball radius for mass {mass} around an anchor of squared norm {nc}")
    return radius2


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
    if not 2 <= embed_dim <= _MAX_SYNTHETIC_EMBED_DIM:
        raise InvalidConfigError(
            f"embed_dim must be in [2, {_MAX_SYNTHETIC_EMBED_DIM}], got {embed_dim}")
    if not background:
        raise InvalidConfigError("need at least one background component")

    center_rows = CounterStream(seed, STREAM_MODEL)
    anchor_rows = CounterStream(seed, STREAM_MODEL_LATENT)

    def spread_and_center(name: str, item: dict, row: int) -> tuple[float, np.ndarray]:
        """A component's checked spread and unit center; a null center is
        derived from row ``row`` of the seed's center stream."""
        spread = json_field(item, "spread", 0.0)
        if spread < 0:
            raise InvalidConfigError(f"{name} spread {spread}")
        center = normalize(center_rows.normal_rows(row, 1, embed_dim)[0]
                           if item.get("center") is None else json_field(item, "center", ndim=1))
        if center.shape != (embed_dim,):
            raise InvalidConfigError(f"{name} center has dim {center.shape}")
        return spread, center

    bg: list[BackgroundComponent] = []
    for i, item in enumerate(background):
        weight = json_field(item, "weight", 1.0)
        if weight < 0:
            raise InvalidConfigError(f"background[{i}] weight {weight}")
        spread, center = spread_and_center(f"background[{i}]", item, i)
        bg.append(BackgroundComponent(weight=weight, spread=spread, center=center))
    total_w = sum(c.weight for c in bg)
    if total_w <= 0:
        raise InvalidConfigError("background weights sum to zero")

    modes: list[PlantedMode] = []
    mass_sum = 0.0
    for j, item in enumerate(planted):
        mass = json_field(item, "mass", 0.0)
        if not 0.0 <= mass <= 1.0:
            raise InvalidConfigError(f"planted[{j}] mass {mass} outside [0, 1]")
        mass_sum += mass
        spread, center = spread_and_center(f"planted[{j}]", item, len(bg) + j)
        if item.get("latent_anchor") is None:
            direction = normalize(anchor_rows.normal_rows(j, 1, latent_dim)[0])
            anchor = direction * json_field(item, "latent_norm", math.sqrt(latent_dim))
        else:
            anchor = json_field(item, "latent_anchor", ndim=1)
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
            # an infinite ball overlaps any other: sqrt(inf) is inf
            gap = float(np.linalg.norm(modes[a].latent_anchor - modes[b].latent_anchor))
            if gap <= math.sqrt(ra) + math.sqrt(rb):
                raise InvalidConfigError(f"planted balls {a} and {b} overlap")

    w = np.array([c.weight for c in bg], dtype=np.float64) / total_w
    return SyntheticModel(latent_dim=latent_dim, embed_dim=embed_dim, seed=int(seed),
                          background=tuple(bg), planted=tuple(modes),
                          weights_cum=np.cumsum(w))


class _Source:
    """Lifecycle every source shares: ``with open_source(spec) as src: ...``."""

    def _latents(self, latents: np.ndarray) -> np.ndarray:
        """``latents`` as contiguous float64 rows of this source's latent_dim."""
        z = np.ascontiguousarray(latents, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise MalformedResponseError(
                f"latents shape {z.shape}, expected (*, {self.latent_dim})")
        return z

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SyntheticSource(_Source):
    """Deterministic planted-collapse generator."""

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

    @staticmethod
    def _perturb(center: np.ndarray, spread: float, hashes: np.ndarray,
                 work: np.ndarray) -> np.ndarray:
        """``center`` moved along per-latent tangent noise of scale ``spread``;
        the noise is a pure function of each latent's hash.  Each step runs in
        place on the two arrays of ``work``, the result's shape, in the order
        and so with the bits of ``tests/oracles.py``'s formula."""
        if spread == 0.0:
            return np.broadcast_to(center, (len(hashes), len(center)))
        temp, noise = work
        cols = np.arange(1, len(center) + 1, dtype=np.uint64) * _SPLITMIX_GAMMA
        grid = np.add(hashes[:, None], cols, out=temp.view(np.uint64))
        hash_to_unit(splitmix64(grid, grid, noise.view(np.uint64)), out=noise)
        ndtri(noise, out=noise)
        # reduce per row rather than via BLAS: gemv kernels round differently
        # depending on row count, which would make results batch-dependent
        coef = np.add.reduce(np.multiply(noise, center, out=temp), axis=1)
        noise -= np.multiply(coef[:, None], center, out=temp)   # the tangent
        noise *= spread
        noise += center
        return normalize_rows(noise, noise, temp)

    def _components(self, z: np.ndarray) -> np.ndarray:
        """Each row's component: the first planted mode whose ball holds it,
        else ``len(planted)`` plus the background component its hash selects."""
        m = self.model
        label = np.full(len(z), -1, dtype=np.int64)
        for j, mode in enumerate(m.planted):
            if mode.ball_radius2 == 0.0:
                continue
            hit = label < 0
            if not math.isinf(mode.ball_radius2):
                hit &= np.sum((z - mode.latent_anchor) ** 2, axis=1) <= mode.ball_radius2
            label[hit] = j
        rest = label < 0
        if rest.any():
            u = hash_to_unit(hash_latents(self._select_seed, z[rest]))
            idx = np.searchsorted(m.weights_cum, u, side="right")
            label[rest] = len(m.planted) + np.minimum(idx, len(m.background) - 1)
        return label

    def embed(self, latents: np.ndarray) -> tuple[np.ndarray, None]:
        m = self.model
        z = self._latents(latents)
        out = np.empty((len(z), m.embed_dim), dtype=np.float64)
        components = m.planted + m.background
        step = block_rows(_EMBED_ROWS, max(m.latent_dim, m.embed_dim))
        piece = block_rows(step, m.embed_dim, piece=True)
        work = np.empty((2, piece, m.embed_dim))   # reused by every piece of every block
        for lo in range(0, len(z), step):
            block = z[lo:lo + step]
            label = self._components(block)
            hashes = hash_latents(self._noise_seed, block)
            out_block = out[lo:lo + step]
            for c, component in enumerate(components):
                rows = np.flatnonzero(label == c)
                for at in range(0, len(rows), piece):
                    held = rows[at:at + piece]
                    out_block[held] = self._perturb(component.center, component.spread,
                                                    hashes[held], work[:, :len(held)])
        return out, None


# -- wire framing shared by subprocess and remote adapters --------------------

def _frame_parts(vectors: np.ndarray, as_latents: bool) -> tuple[bytes, np.ndarray]:
    """The header and the packed records of one store-framed batch:
    latent-only frames zero embed_dim and vice versa."""
    vectors = np.asarray(vectors)
    empty = np.empty((len(vectors), 0))
    lat, emb = (vectors, empty) if as_latents else (empty, vectors)
    return (store_format.pack_header(lat.shape[1], emb.shape[1], len(vectors)),
            store_format.packed_records(lat, emb))


def pack_frame(vectors: np.ndarray, as_latents: bool) -> bytes:
    """One store-framed batch as bytes: its :func:`_frame_parts` joined."""
    return b"".join(_frame_parts(vectors, as_latents))


def _read_frame(readinto, check, truncated):
    try:   # the one place where a store format error becomes a malformed response
        return store_format.read_frame(readinto, check, truncated)
    except StoreFormatError as exc:
        raise MalformedResponseError(f"bad frame header: {exc}") from exc


def _frame_truncated(got: tuple[int, int] | None) -> MalformedResponseError:
    return MalformedResponseError(
        "frame truncated: " + ("header" if got is None else "%d of %d records" % got))


def unpack_frame(blob: bytes) -> tuple[int, int, np.ndarray, np.ndarray, list[bytes] | None]:
    """(latent_dim, embed_dim, latents, embeddings, refs) from one frame."""
    frame = _read_frame(io.BytesIO(blob).readinto, lambda *dims: None, _frame_truncated)
    if frame is None:
        raise _frame_truncated(None)
    return frame[:5]


class _BatchedSource(_Source):
    """Batching driver for the two adapters."""

    def __init__(self, latent_dim: int, embed_dim: int, batch_size: int,
                 timeout: float):
        if latent_dim < 1 or embed_dim < 2:
            raise InvalidConfigError(f"bad dims {latent_dim}x{embed_dim}")
        if batch_size < 1:
            raise InvalidConfigError(f"batch must be >= 1, got {batch_size}")
        if not 0.0 < timeout <= _MAX_WAIT_S:
            raise InvalidConfigError(f"timeout must be in (0, {_MAX_WAIT_S:g}] s, got {timeout}")
        self.latent_dim = int(latent_dim)
        self.embed_dim = int(embed_dim)
        self.batch_size = int(batch_size)
        self.timeout = float(timeout)

    def _request(self, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        raise NotImplementedError

    def _read_reply(self, readinto, n: int, who: str,
                    closed) -> tuple[np.ndarray, list[bytes] | None]:
        """(embeddings, refs) of a reply whose header promises ``n`` rows
        of this source's embed_dim, with no latents or this source's
        latent_dim.  A reply that ends early or never starts raises ``closed``."""
        def check(latent_dim: int, embed_dim: int, count: int) -> None:
            if embed_dim != self.embed_dim or count != n:
                raise MalformedResponseError(
                    f"{who} replied {count} rows of embed_dim {embed_dim}, "
                    f"expected {n} of {self.embed_dim}")
            if latent_dim not in (0, self.latent_dim):
                raise MalformedResponseError(
                    f"{who} replied latent_dim {latent_dim}, expected 0 or {self.latent_dim}")

        frame = _read_frame(readinto, check, closed)
        if frame is None:
            raise closed(None)
        return frame[3], frame[4]

    def embed(self, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        """Each batch's reply is copied into one float32 output as it
        arrives, so a call holds the output and one reply frame."""
        z = self._latents(latents)
        out = np.empty((len(z), self.embed_dim), dtype=np.float32)
        refs: list[bytes] | None = None
        for lo in range(0, len(z), self.batch_size):
            out[lo:lo + self.batch_size], rf = self._request(z[lo:lo + self.batch_size])
            if rf is not None:
                refs = refs or [b""] * len(z)
                refs[lo:lo + len(rf)] = rf
        return out, refs


class SubprocessSource(_BatchedSource):
    """One child process speaking the store framing on stdin/stdout.

    The lock keeps the frames of callers on different threads apart; a
    respawned child reuses the (truncated) stderr file, which has no name.
    ``timeout`` bounds a whole request: writing its frame and reading the reply.
    """

    def __init__(self, argv: Sequence[str], latent_dim: int, embed_dim: int,
                 batch_size: int = 4096, timeout: float = 60.0):
        super().__init__(latent_dim, embed_dim, batch_size, timeout)
        if (not isinstance(argv, (list, tuple)) or not argv
                or not all(isinstance(a, str) for a in argv)):
            raise InvalidConfigError(
                f"subprocess argv must be a non-empty list of strings, got {argv!r}")
        self._argv = list(argv)
        self._proc: subprocess.Popen | None = None
        self._stderr = None
        self._lock = threading.Lock()

    def _child(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        if self._stderr is None:
            self._stderr = tempfile.TemporaryFile()
        self._stderr.seek(0)
        self._stderr.truncate()
        try:
            self._proc = subprocess.Popen(self._argv, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, stderr=self._stderr)
        except OSError as exc:
            raise SourceUnavailableError(f"cannot start {self._argv[0]}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)   # a write takes what fits
        return self._proc

    def _fail(self, reason: str) -> str:
        proc = self._proc
        tail = ""
        if self._stderr is not None:
            try:   # pread leaves alone the file offset that the child writes at
                fd = self._stderr.fileno()
                tail = os.pread(fd, 800, max(os.fstat(fd).st_size - 800, 0)).decode(
                    "utf-8", "replace").strip()
            except OSError:
                pass
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        self._proc = None
        return f"{reason}" + (f" (child stderr: {tail})" if tail else "")

    def _request(self, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        with self._lock:
            proc = self._child()
            frame = memoryview(pack_frame(latents, as_latents=True))
            deadline = time.monotonic() + self.timeout

            def ready(pipe, event: int, what: str) -> int:
                """``pipe``'s fd, once it is ready for ``event`` before the deadline."""
                poller = select.poll()   # unlike select.select, takes any fd number
                poller.register(pipe, event)
                budget = deadline - time.monotonic()
                if budget <= 0 or not poller.poll(budget * 1000):
                    raise SourceTimeoutError(self._fail(f"child {what} timed out"))
                return pipe.fileno()

            while frame:
                fd = ready(proc.stdin, select.POLLOUT, "request")
                try:
                    frame = frame[os.write(fd, frame):]
                except BlockingIOError:   # woken with less room than the write needs
                    pass
                except OSError as exc:
                    raise SourceUnavailableError(
                        self._fail(f"child rejected input: {exc}")) from exc

            def readinto(view: memoryview) -> int:
                return os.readv(ready(proc.stdout, select.POLLIN, "response"), [view])

            def closed(_got) -> SourceUnavailableError:
                return SourceUnavailableError(self._fail("child closed its stdout"))

            try:
                return self._read_reply(readinto, len(latents), "child", closed)
            except MalformedResponseError:
                self._fail("")
                raise

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        err, self._stderr = self._stderr, None
        if err is not None:
            err.close()


class RemoteSource(_BatchedSource):
    """HTTP endpoint speaking the store framing per POST request.

    ``timeout`` bounds each socket call, and an attempt whose reply is still
    coming in once ``timeout`` has passed since it started fails.
    """

    def __init__(self, url: str, latent_dim: int, embed_dim: int,
                 batch_size: int = 256, retries: int = 3, backoff: float = 0.25,
                 timeout: float = 30.0):
        super().__init__(latent_dim, embed_dim, batch_size, timeout)
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            raise InvalidConfigError(f"unsupported endpoint url {url!r}")
        if retries < 0:
            raise InvalidConfigError(f"retries must be >= 0, got {retries}")
        if not 0.0 <= backoff < math.inf:
            raise InvalidConfigError(f"backoff must be >= 0 and finite, got {backoff}")
        # every attempt's timeout plus the sleeps before the retries, summed in
        # floats once the exact int comparison has bounded the attempt count
        attempts = retries + 1
        if (attempts > _MAX_WAIT_S / self.timeout or attempts * self.timeout
                + backoff * (2.0 ** min(retries, _MAX_DOUBLINGS) - 1.0) > _MAX_WAIT_S):
            raise InvalidConfigError(
                f"retries {retries} at timeout {self.timeout:g} s and backoff {backoff:g} s "
                f"can wait over {_MAX_WAIT_S:g} s in all")
        self.url = url
        self.retries = int(retries)
        self.backoff = float(backoff)

    def _request(self, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
        # only remote sources use these; the worker and the other commands
        # start faster without them (see the cold-start test)
        import http.client
        import urllib.error
        import urllib.request
        frame = pack_frame(latents, as_latents=True)
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * 2.0 ** min(attempt - 1, _MAX_DOUBLINGS))
            req = urllib.request.Request(self.url, data=frame, method="POST", headers={
                "Content-Type": "application/octet-stream"})
            stop = time.monotonic() + self.timeout
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    def readinto(view: memoryview) -> int:
                        """At most one socket read, each bounded by the socket timeout."""
                        if time.monotonic() > stop:
                            raise TimeoutError(f"no whole reply within {self.timeout:g} s")
                        return resp.readinto1(view)

                    return self._read_reply(readinto, len(latents), "endpoint",
                                            _frame_truncated)
            except (OSError, http.client.HTTPException) as exc:
                # HTTPError, URLError and TimeoutError are OSErrors; a reply
                # that is not HTTP raises BadStatusLine, an HTTPException
                if isinstance(exc, urllib.error.HTTPError) and 400 <= exc.code < 500:
                    raise SourceUnavailableError(
                        f"endpoint rejected request: HTTP {exc.code}") from exc
                last = exc
        # the last failure decides; URLError wraps a connect timeout in .reason
        if isinstance(getattr(last, "reason", last), TimeoutError):
            raise SourceTimeoutError(f"endpoint timed out after {self.retries + 1} attempts") from last
        raise SourceUnavailableError(
            f"endpoint unreachable after {self.retries + 1} attempts: {last}") from last


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
        latent_dim = json_field(raw, "latent_dim", integer=True)
        embed_dim = json_field(raw, "embed_dim", integer=True)
        seed = json_field(raw, "seed", 0, integer=True)
        parameters = {**raw.get("parameters", {})}   # only a mapping unpacks, not pairs
        if kind not in ("synthetic", "subprocess", "remote"):
            raise InvalidConfigError(f"{path}: unknown source kind {kind!r}")
        if not 1 <= latent_dim <= _MAX_LATENT_DIM:
            raise InvalidConfigError(f"{path}: latent_dim must be in [1, {_MAX_LATENT_DIM}]")
        if embed_dim < 2:
            raise InvalidConfigError(f"{path}: embed_dim must be >= 2")
        if not 0 <= seed < 2 ** 64:
            raise InvalidConfigError(f"{path}: seed out of u64 range")
        store_format.check_record_size(latent_dim, embed_dim)   # its stores must read back
    except (*CONTENT_ERRORS, StoreFormatError) as exc:
        raise InvalidConfigError(f"{path}: {exc!r}") from exc
    return SourceSpec(kind=kind, latent_dim=latent_dim, embed_dim=embed_dim,
                      seed=seed, parameters=parameters)


def _stated(parameters: dict, **integer: bool) -> dict:
    """The adapter keyword arguments that ``parameters`` states, each key read
    as a JSON integer or a JSON number; a key left out keeps the constructor's
    default.  The spec's ``batch`` is the constructors' ``batch_size``."""
    return {"batch_size" if key == "batch" else key: json_field(parameters, key, integer=wants)
            for key, wants in integer.items() if key in parameters}


def open_source(spec: SourceSpec):
    """The source a spec names; parameters of the wrong type or value raise
    ``InvalidConfigError``.  Keys a kind does not use are ignored."""
    p = spec.parameters
    try:
        if spec.kind == "synthetic":
            return SyntheticSource(build_synthetic_model(
                spec.latent_dim, spec.embed_dim, spec.seed,
                background=p.get("background", [{"weight": 1.0, "spread": 10.0}]),
                planted=p.get("planted", ())))
        if spec.kind == "subprocess":
            return SubprocessSource(p.get("argv", ()), spec.latent_dim, spec.embed_dim,
                                    **_stated(p, batch=True, timeout=False))
        if "url" not in p:
            raise InvalidConfigError("remote source needs parameters.url")
        return RemoteSource(p["url"], spec.latent_dim, spec.embed_dim,
                            **_stated(p, batch=True, retries=True, backoff=False,
                                      timeout=False))
    except CONTENT_ERRORS as exc:
        raise InvalidConfigError(f"bad {spec.kind} source parameters: {exc}") from exc


def non_unit_row(embeddings: np.ndarray,
                 sq: np.ndarray | None = None) -> tuple[int, float] | None:
    """(row, norm) of the first row without unit norm, else None: the one
    rule on embedding values, for a source's replies and for stores.

    A row passes when its norm is within ``_UNIT_NORM_TOL`` of 1, so one
    holding NaN or inf fails.  Norms come from float64 :func:`row_dots`,
    so a float32 row gets the verdict of its upcast and the check holds
    no full-size temporary; ``sq`` is that squared norm where the caller
    took it already.
    """
    norms = np.sqrt(row_dots(embeddings) if sq is None else sq)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))
    return None if bad.size == 0 else (int(bad[0]), float(norms[bad[0]]))


def generate(source, latents: np.ndarray) -> tuple[np.ndarray, list[bytes] | None]:
    """Embed latents through a source, whose every row must pass
    :func:`non_unit_row`."""
    emb, refs = source.embed(latents)
    bad = non_unit_row(emb)
    if bad is not None:
        raise MalformedResponseError("source returned embedding %d with norm %.6f" % bad)
    return emb, refs


def batches(dims, n: int, draw):
    """``draw(rows, start)`` for each :func:`generate` batch of a set of ``n``
    rows that streams through a source (``sample`` into its store,
    calibration's fit set, ``evaluate``'s pools), in order.  A batch has at
    most ``_GENERATE_ROWS`` rows, and fewer where a float64 row of latent and
    embedding is wide, so it stays within one block; ``dims`` is anything
    with ``latent_dim`` and ``embed_dim``, a source or its spec."""
    step = block_rows(_GENERATE_ROWS, dims.latent_dim + dims.embed_dim)
    for lo in range(0, n, step):
        yield draw(min(step, n - lo), lo)


def run_worker(source, stdin, stdout) -> None:
    """Child side of the subprocess protocol: frames in, frames out, flush.
    A stream that ends between frames is a clean exit."""
    def check(latent_dim: int, embed_dim: int, _count: int) -> None:
        if latent_dim != source.latent_dim:
            raise MalformedResponseError(
                f"request latent_dim {latent_dim}, source has {source.latent_dim}")
        if embed_dim != 0:   # requests carry latents only
            raise MalformedResponseError(f"request embed_dim {embed_dim}, expected 0")

    def truncated(got) -> SourceUnavailableError:
        return SourceUnavailableError("truncated request " + ("header" if got is None else "body"))

    while (frame := _read_frame(stdin.readinto, check, truncated)) is not None:
        emb, _ = source.embed(frame[2])
        stdout.writelines(_frame_parts(emb, as_latents=False))   # no joined copy
        stdout.flush()
