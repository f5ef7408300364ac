"""Deterministic counter-based random streams.

Every repetition of every experiment gets its own Philox stream whose key is
derived by mixing ``(base_seed, rep_index)`` through splitmix64.  Philox is a
counter-based generator, so stream r is a pure function of its key: results
do not depend on scheduling, chunking, or worker count.

There is one re-key path.  ``mix_key`` derives one key in Python integers;
``mix_keys`` derives a consecutive range of them in one vectorized uint64
pass (the sweeps' and the parabola sampler's batch form).  ``StreamPool.rekey``
points a single reusable Philox instance at the start of the stream with a
given key, and ``StreamPool.get`` is ``rekey(mix_key(...))``.  Draws after a
re-key are bit-identical to a freshly constructed ``stream(base_seed, i)``
(there are tests for that), and re-keying is an order of magnitude cheaper
than constructing a bit generator, which matters in million-rep sweeps.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 increment and mixing constants (Steele, Lea & Flood).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 output step for the 64-bit state ``x``."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def mix_key(base_seed: int, index: int) -> int:
    """Derive the 64-bit Philox key for stream ``index`` under ``base_seed``.

    Two rounds of splitmix64 over the pair, so that structured inputs
    (small seeds, consecutive indices) land far apart in key space.
    """
    return splitmix64((splitmix64(base_seed & _MASK64) ^ (index & _MASK64)))


def mix_keys(base_seed: int, start: int, count: int) -> np.ndarray:
    """``mix_key(base_seed, i)`` for i in start..start+count-1, as uint64.

    The same two splitmix64 rounds, the second one over a uint64 array
    (numpy's unsigned arithmetic wraps modulo 2^64, which is the mask).
    """
    u64 = np.uint64
    x = np.arange(count, dtype=u64)
    x += u64(start & _MASK64)
    x ^= u64(splitmix64(base_seed & _MASK64))
    x += u64(_GOLDEN)
    x ^= x >> u64(30)
    x *= u64(_MIX1)
    x ^= x >> u64(27)
    x *= u64(_MIX2)
    x ^= x >> u64(31)
    return x


def stream(base_seed: int, index: int = 0) -> np.random.Generator:
    """A fresh generator for rep ``index`` of the experiment ``base_seed``."""
    return np.random.Generator(np.random.Philox(key=mix_key(base_seed, index)))


class StreamPool:
    """Reusable generator that can be pointed at any (base_seed, index) stream.

    ``pool.get(i)`` returns a generator positioned at the start of stream i,
    reusing one Philox instance; ``pool.rekey(key)`` does the same for a key
    already derived (by ``mix_keys``).  Draws from the returned generator
    are bit-identical to ``stream(base_seed, i)``.
    """

    def __init__(self, base_seed: int):
        self.base_seed = base_seed
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        # A fresh stream: zero counter, empty output buffer, no cached half
        # word.  Plain lists, not arrays, because the state setter converts
        # item by item and Python ints convert several times faster.
        self._key = [0, 0]
        self._template = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, key: int) -> np.random.Generator:
        """The generator, positioned at the start of the stream keyed ``key``."""
        self._key[0] = key
        self._bitgen.state = self._template
        return self._gen

    def get(self, index: int) -> np.random.Generator:
        return self.rekey(mix_key(self.base_seed, index))
