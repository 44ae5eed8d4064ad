"""Counter-stream addressing and hashing."""

import numpy as np
import pytest
from scipy.special import ndtri

from bbgc.rng import (
    CounterStream,
    derive_seed,
    hash_latents,
    hash_to_unit,
    splitmix64,
)


def test_raw_offset_addressing():
    s = CounterStream(12345, 7)
    whole = s.raw64(0, 40)
    # any (offset, count) window must slice out of the same infinite tape
    for offset, count in [(0, 40), (1, 5), (3, 4), (4, 8), (7, 29), (39, 1)]:
        np.testing.assert_array_equal(s.raw64(offset, count),
                                      whole[offset:offset + count])


def test_uniform_open_interval():
    u = CounterStream(0, 1).uniforms(0, 100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # mean of Uniform(0,1): 5 sigma band at n=1e5 is +-0.0046
    assert abs(u.mean() - 0.5) < 0.005


def test_streams_and_seeds_disjoint():
    a = CounterStream(3, 1).raw64(0, 8)
    b = CounterStream(3, 2).raw64(0, 8)
    c = CounterStream(4, 1).raw64(0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normals_are_inverse_cdf_of_uniforms():
    from scipy.special import ndtri
    s = CounterStream(9, 2)
    np.testing.assert_array_equal(s.normals(5, 20), ndtri(s.uniforms(5, 20)))


def test_normal_rows_absolute_addressing():
    s = CounterStream(5, 3)
    table = s.normal_rows(0, 10, 4)
    np.testing.assert_array_equal(s.normal_rows(6, 3, 4), table[6:9])
    # row addressing is by (row, dim) regardless of how rows are batched
    np.testing.assert_array_equal(
        np.vstack([s.normal_rows(i, 1, 4) for i in range(10)]), table)


def test_stream_validation():
    with pytest.raises(ValueError):
        CounterStream(-1, 0)
    with pytest.raises(ValueError):
        CounterStream(0, 2 ** 64)
    with pytest.raises(ValueError):
        CounterStream(0, 0).raw64(0, -1)


def _splitmix_reference(x: int) -> int:
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_splitmix64_matches_integer_reference():
    xs = np.array([0, 1, 2, 12345, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    got = splitmix64(xs)
    for x, g in zip(xs.tolist(), got.tolist()):
        assert g == _splitmix_reference(x)


def test_hash_latents_is_pure_and_row_wise():
    z = np.random.default_rng(0).normal(size=(20, 5))
    h1 = hash_latents(42, z)
    h2 = hash_latents(42, z.copy())
    np.testing.assert_array_equal(h1, h2)
    # each row hashes independently of its position in the batch
    np.testing.assert_array_equal(hash_latents(42, z[7]), h1[7:8])
    assert not np.array_equal(hash_latents(43, z), h1)
    # a single bit flip in the input changes the hash
    z2 = z.copy()
    z2[3, 2] = np.nextafter(z2[3, 2], np.inf)
    assert hash_latents(42, z2)[3] != h1[3]


def test_hash_to_unit_range():
    h = hash_latents(1, np.random.default_rng(1).normal(size=(1000, 3)))
    u = hash_to_unit(h)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_hash_to_unit_maps_the_top_words_below_one():
    # (2**53 - 1) + 0.5 rounds up to 2**53 without the clamp
    top = np.array([2 ** 64 - 1, 2 ** 64 - 2 ** 11], dtype=np.uint64)
    u = hash_to_unit(top)
    assert np.all(u < 1.0) and np.all(np.isfinite(ndtri(u)))
    # the next word down is below 1 already and keeps its bits
    below = np.array([2 ** 64 - 2 ** 11 - 1], dtype=np.uint64)
    assert hash_to_unit(below.copy())[0] == (float((2 ** 64 - 2 ** 11 - 1) >> 11) + 0.5) * 2.0 ** -53
    assert hash_to_unit(below.copy())[0] < np.nextafter(1.0, 0.0)


def test_derive_seed_distinct_and_stable():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(8, 1) != derive_seed(7, 1)
    assert 0 <= derive_seed(2 ** 64 - 1, 2 ** 63) < 2 ** 64
