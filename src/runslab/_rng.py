"""Deterministic counter-based random streams.

Every repetition of every experiment gets its own Philox stream whose key is
derived by mixing ``(base_seed, rep_index)`` through splitmix64.  Philox is a
counter-based generator, so stream r is a pure function of its key: results
do not depend on scheduling, chunking, or worker count.

Sweeps re-key streams rather than construct one per rep.  ``mix_key`` derives one
key in Python integers; ``mix_keys`` derives a consecutive range of them in
one vectorized uint64 pass (the sweeps' and the parabola sampler's batch
form).  ``StreamPool.rekey`` points a single reusable Philox instance at
the start of the stream with a given key, and ``StreamPool.get`` is
``rekey(mix_key(...))``.  Draws after a re-key are bit-identical to a
freshly constructed ``stream(base_seed, i)`` (there are tests for that),
and re-keying is an order of magnitude cheaper than constructing a bit
generator, which matters in million-rep sweeps.

For many short streams at once, ``philox_words`` computes the first words
of every key's stream together, in numpy uint64 arithmetic: Philox output
is a pure function of (key, counter).  It equals numpy's ``random_raw``
word for word.  The sweeps build small-n insertion orders from those words
by replaying what numpy's ``Generator.permutation`` draws (see
``evolve._batch_orders``); that replay rests on the installed numpy's
shuffle algorithm, and tests pin it against the per-row shuffle.

Because each piece of work draws only from the streams of its own keys,
``ordered_map`` can run the pieces in worker processes and still return
exactly what a serial loop returns: the sweeps' chunks and the parabola
sampler's blocks of paths both go through it.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

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


def ordered_map(func, args, jobs: int):
    """``func(*a)`` for each tuple ``a`` of ``args``, in order: in ``jobs``
    worker processes when there is more than one tuple, else serially and
    lazily.  ``func`` must be a module-level function.
    """
    args = list(args)
    if jobs > 1 and len(args) > 1:
        # Spawned, not forked: a fork copies a parent that may run threads
        # (numpy's BLAS pool, a caller's own) and can deadlock on a lock one
        # of them held.  Spawning cost about 0.4 s a pool on a 2-core box (a
        # 3-chunk jobs = 2 sweep at n = 10^6: 0.73-0.83 s forked, 1.13-1.26 s
        # spawned); the results are the same either way.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            return list(pool.map(func, *zip(*args)))
    return (func(*a) for a in args)


# Philox4x64-10 round multipliers and key (Weyl) increments, as in numpy's
# Philox and Salmon et al., "Parallel random numbers: as easy as 1, 2, 3".
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Counters per pass: a dozen uint64 working arrays of this length stay in
# cache while the ten rounds run over them.
_PHILOX_CHUNK = 1 << 13


def _mulhilo(x: np.ndarray, m: int, lo: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray):
    """lo, hi = the low and high 64 bits of x * m, from 32-bit halves.

    Every partial product of two 32-bit halves fits in 64 bits, and so do
    the two sums below: (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.multiply(x, np.uint64(m), out=lo)  # wraps modulo 2^64
    np.bitwise_and(x, np.uint64(0xFFFFFFFF), out=t)  # x_lo
    np.right_shift(x, np.uint64(32), out=u)  # x_hi
    np.multiply(u, m_hi, out=hi)
    np.multiply(u, m_lo, out=u)  # x_hi m_lo
    u += (t * m_lo) >> np.uint64(32)  # + carry-in from x_lo m_lo
    t *= m_hi  # x_lo m_hi
    t += u & np.uint64(0xFFFFFFFF)
    u >>= np.uint64(32)
    hi += u
    t >>= np.uint64(32)
    hi += t


def philox_words(keys, blocks: int) -> np.ndarray:
    """Row r: the first ``4 * blocks`` words of the Philox stream keyed
    ``keys[r]``, equal to ``np.random.Philox(key=keys[r]).random_raw(4 * blocks)``.

    Philox4x64-10 in numpy uint64 arithmetic.  Block c (c = 1, 2, ...) is
    the counter [c, 0, 0, 0] under the key [k, 0]: numpy's Philox starts at
    counter 0 and increments it before each block.  Each round multiplies
    words 0 and 2 by 64x64 -> 128 bits and xors the high halves into words
    1 and 3 with the key; the key's two halves gain the Weyl increments
    between rounds.  Counters are taken ``_PHILOX_CHUNK`` at a time and the
    rounds run in place.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    total = keys.size * blocks
    out = np.empty((total, 4), dtype=np.uint64)
    m0, m1 = _PHILOX_M
    # Round 1 in closed form: the zero words multiply to zero, so the
    # counter [c, 0, 0, 0] and key [k, 0] give (k, 0, hi(m0 c), lo(m0 c)).
    first = [m0 * c for c in range(1, blocks + 1)]
    key_words = np.repeat(keys, blocks)
    hi_c = np.tile(np.array([p >> 64 for p in first], dtype=np.uint64), keys.size)
    lo_c = np.tile(np.array([p & _MASK64 for p in first], dtype=np.uint64), keys.size)
    work = np.empty((11, min(total, _PHILOX_CHUNK)), dtype=np.uint64)
    for start in range(0, total, _PHILOX_CHUNK):
        stop = min(start + _PHILOX_CHUNK, total)
        x0, x1, x2, x3, lo0, hi0, lo1, hi1, t, u, k0 = work[:, : stop - start]
        x0[...] = key_words[start:stop]
        x1[...] = 0
        x2[...] = hi_c[start:stop]
        x3[...] = lo_c[start:stop]
        k0[...] = x0
        for r in range(1, _PHILOX_ROUNDS):
            k0 += np.uint64(_PHILOX_W[0])
            _mulhilo(x0, m0, lo0, hi0, t, u)
            _mulhilo(x2, m1, lo1, hi1, t, u)
            hi1 ^= x1
            hi1 ^= k0
            hi0 ^= x3
            hi0 ^= np.uint64(r * _PHILOX_W[1] & _MASK64)
            # The new state is (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); the
            # old state's buffers become the next round's products.
            x0, x1, x2, x3, lo0, hi0, lo1, hi1 = hi1, lo1, hi0, lo0, x0, x1, x2, x3
        block = out[start:stop]
        for j, word in enumerate((x0, x1, x2, x3)):
            block[:, j] = word
    return out.reshape(keys.size, 4 * blocks)
