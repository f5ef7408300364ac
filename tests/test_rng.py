"""Stream derivation: reference vectors, independence, pool reuse, and the
batch Philox words against numpy's own Philox."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from runslab import _rng
from runslab._rng import StreamPool, mix_key, mix_keys, philox_words, splitmix64, stream


def test_splitmix64_reference_vectors():
    # First outputs of the standard sequence seeded at 0 and 1.
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465


def test_mix_key_frozen_values():
    # Any change here silently re-seeds every simulation in the package,
    # so the mapping is pinned.
    assert mix_key(0, 1) == 627405149472732430
    assert mix_key(1, 0) == 6791897765849424158
    assert mix_key(0, 12) == 10802576077850714572


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_mix_key_is_64_bit(base, index):
    assert 0 <= mix_key(base, index) < 2**64


@pytest.mark.parametrize("base", [0, -1, 2**64 - 1, 2**70 + 5])
@pytest.mark.parametrize("start", [0, 2**40])
def test_mix_keys_match_mix_key(base, start):
    # The CLI accepts negative and wider-than-64-bit seeds; both forms mask.
    keys = mix_keys(base, start, 40)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [mix_key(base, start + i) for i in range(40)]


def test_mix_key_asymmetric():
    assert mix_key(3, 7) != mix_key(7, 3)


def test_nearby_keys_are_far_apart():
    keys = [mix_key(0, i) for i in range(1000)]
    assert len(set(keys)) == 1000
    # crude avalanche check: consecutive keys differ in ~half their bits
    flips = [bin(keys[i] ^ keys[i + 1]).count("1") for i in range(999)]
    assert 15 < min(flips) and max(flips) < 50


def test_stream_is_deterministic():
    a = stream(42, 3).random(8)
    b = stream(42, 3).random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_index_and_seed():
    base = stream(42, 0).random(4)
    assert not np.array_equal(base, stream(42, 1).random(4))
    assert not np.array_equal(base, stream(43, 0).random(4))


def test_pool_matches_fresh_streams():
    pool = StreamPool(base_seed=99)
    for index in (0, 1, 17, 2**40):
        np.testing.assert_array_equal(
            pool.get(index).random(16), stream(99, index).random(16)
        )


def test_pool_rekey_matches_fresh_streams():
    pool = StreamPool(base_seed=7)
    for index, key in enumerate(mix_keys(7, 0, 5).tolist()):
        np.testing.assert_array_equal(
            pool.rekey(key).permutation(30), stream(7, index).permutation(30)
        )


def test_pool_reuse_resets_position():
    pool = StreamPool(base_seed=5)
    first = pool.get(2).random(10)
    pool.get(3).random(7)  # burn some state on another stream
    np.testing.assert_array_equal(pool.get(2).random(10), first)


def test_pool_permutations_match():
    pool = StreamPool(base_seed=0)
    np.testing.assert_array_equal(
        pool.get(6).permutation(50), stream(0, 6).permutation(50)
    )


@pytest.mark.parametrize("index", [0, 1, 2])
def test_integer_draws_match_pool(index):
    pool = StreamPool(base_seed=123)
    a = pool.get(index).integers(0, 1 << 62, size=5)
    b = stream(123, index).integers(0, 1 << 62, size=5)
    np.testing.assert_array_equal(a, b)


def numpy_philox_words(keys, blocks):
    return np.array([np.random.Philox(key=int(k)).random_raw(4 * blocks) for k in keys])


EDGE_KEYS = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_philox_words_match_numpy_on_edge_keys(blocks):
    words = philox_words(EDGE_KEYS, blocks)
    assert words.dtype == np.uint64 and words.shape == (5, 4 * blocks)
    np.testing.assert_array_equal(words, numpy_philox_words(EDGE_KEYS, blocks))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(1, 5))
def test_philox_words_match_numpy(keys, blocks):
    np.testing.assert_array_equal(
        philox_words(np.array(keys, dtype=np.uint64), blocks), numpy_philox_words(keys, blocks)
    )


def test_philox_words_match_numpy_across_chunks():
    # 3 blocks a row: the chunk boundaries fall inside rows.
    rows = _rng._PHILOX_CHUNK // 3 + 5
    keys = mix_keys(11, 0, rows)
    np.testing.assert_array_equal(philox_words(keys, 3), numpy_philox_words(keys, 3))


def test_philox_words_match_numpy_with_small_chunks(monkeypatch):
    # Many chunks, and a last one shorter than the rest.
    monkeypatch.setattr(_rng, "_PHILOX_CHUNK", 7)
    keys = mix_keys(12, 0, 10)
    np.testing.assert_array_equal(philox_words(keys, 4), numpy_philox_words(keys, 4))
