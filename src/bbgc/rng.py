"""Counter-based random streams.

All randomness in the toolkit flows through :class:`CounterStream`, a
thin wrapper over numpy's Philox generator keyed by ``(seed, stream)``.
Each draw site addresses an absolute offset into its stream, so the
value of sample ``i`` depends only on ``(seed, stream, i)`` and never on
batch boundaries or how many workers produced it.

Gaussian variates use the inverse normal CDF on open-interval uniforms:
exactly one 64-bit word per variate.  A ziggurat would consume a
data-dependent number of words and break offset addressing.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

# Stream identifiers.  Every consumer of randomness owns one; two sites
# must never share a (seed, stream) pair.
STREAM_ANCHORS = 1
STREAM_POOL = 2
STREAM_FIT = 3
STREAM_GMM_COMPONENT = 4
STREAM_GMM_NOISE = 5
STREAM_IS_PROPOSAL = 6
STREAM_IS_ACCEPT = 7
STREAM_SHUFFLE = 8
STREAM_KMEANS = 9
STREAM_REFERENCE = 10
STREAM_EVAL_ANCHORS = 11
STREAM_EVAL_POOL = 12
STREAM_MODEL = 13
STREAM_MODEL_LATENT = 14

_U64_TO_UNIT = 2.0 ** -53
# (2**53 - 1) + 0.5 rounds up to 2**53, so the top 2**11 words would map to 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


class CounterStream:
    """Random-access stream of uniforms and normals for one (seed, stream)."""

    def __init__(self, seed: int, stream: int):
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed out of range: {seed}")
        if not 0 <= stream < 2 ** 64:
            raise ValueError(f"stream out of range: {stream}")
        self.seed = int(seed)
        self.stream = int(stream)

    def _bitgen_at(self, offset: int) -> Philox:
        # Philox.advance moves by counter increments; one increment
        # yields a block of four 64-bit outputs.  Jump whole blocks,
        # then discard the within-block remainder.
        bg = Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        block, rem = divmod(int(offset), 4)
        if block:
            bg.advance(block)
        if rem:
            bg.random_raw(rem)
        return bg

    def raw64(self, offset: int, count: int) -> np.ndarray:
        """``count`` raw 64-bit words starting at absolute ``offset``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        return self._bitgen_at(offset).random_raw(count)

    def uniforms(self, offset: int, count: int) -> np.ndarray:
        """Uniforms on the open interval (0, 1), one word each."""
        return hash_to_unit(self.raw64(offset, count))

    def normals(self, offset: int, count: int) -> np.ndarray:
        """Standard normals, one word each, via the inverse CDF."""
        return ndtri(self.uniforms(offset, count))

    def normal_rows(self, start_row: int, n_rows: int, dim: int) -> np.ndarray:
        """Rows ``start_row .. start_row+n_rows`` of an (inf, dim) normal table."""
        if n_rows == 0:
            return np.empty((0, dim), dtype=np.float64)
        flat = self.normals(start_row * dim, n_rows * dim)
        return flat.reshape(n_rows, dim)


def splitmix64(x: np.ndarray, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays, which wrap silently, computed in
    ``out`` (which may be ``x``) with ``scratch`` for the shifts, each allocated
    if not given."""
    z = np.add(x, _SPLITMIX_GAMMA, out=out)
    t = np.empty_like(z) if scratch is None else scratch
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=t), out=z)
        z *= np.uint64(mul)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=t), out=z)


def derive_seed(seed: int, salt: int) -> int:
    """A u64 sub-seed; distinct salts give unrelated Philox key spaces."""
    mixed = splitmix64(np.array([(seed ^ salt) & (2 ** 64 - 1)], dtype=np.uint64))
    return int(mixed[0])


def hash_latents(seed: int, latents: np.ndarray) -> np.ndarray:
    """Order-independent 64-bit hash of each latent row.

    A pure function of (seed, exact float64 bits of the row); the same
    latent hashes identically no matter where or when it is generated.
    """
    z = np.ascontiguousarray(latents, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    bits = z.view(np.uint64)
    h = np.full(bits.shape[0], np.uint64(seed), dtype=np.uint64)
    scratch = np.empty_like(h)
    for j in range(bits.shape[1]):
        splitmix64(np.bitwise_xor(h, bits[:, j], out=h), h, scratch)
    return h


def hash_to_unit(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit hashes to uniforms on (0, 1), in ``out`` if given, shifting ``h`` in place."""
    u = np.add(np.right_shift(h, np.uint64(11), out=None if out is None else h), 0.5, out=out)
    u *= _U64_TO_UNIT
    return np.minimum(u, _BELOW_ONE, out=u)
