"""Per-run random streams for reproducible simulation.

`RunStreams` gives simulation run r its own numpy Philox stream, keyed by
`SeedSequence(seed, spawn_key=(r,))`: child r of `SeedSequence(seed).spawn`,
bit for bit.  A child depends only on (seed, r), so run r draws the same
values however many runs are simulated with it and wherever a range of runs
starts, and different seeds give unrelated streams.  The keys of all runs
are derived in one vectorized pass (`spawn_keys`): numpy's SeedSequence
hash of the seed is computed once, and only the spawn word r, mixed into
that pool, differs between runs.  Each double comes from one 64-bit output
by the 53-bit construction (raw >> 11) * 2**-53 of numpy's
`Generator.random`.
Runs fill whole blocks of their upcoming draws with one call each; every
stream is consumed in order, so results do not depend on the block size.

`Xoshiro256StarStar` is a standalone vectorized xoshiro256** generator,
implemented from the published algorithm on uint64 numpy arrays and seeded
per substream by expanding (seed XOR stream_index) through SplitMix64.  The
simulator does not use it.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = _U64(0x94D049BB133111EB)
_FIVE = _U64(5)
_NINE = _U64(9)
_INV_2_53 = float(2.0 ** -53)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, mixed under the A hash constants and read out under the B ones
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, skip: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) hash constants of the pool's four words, as
    (4, 1) uint64 columns, after `skip` earlier hashes: a hash xors with
    the running constant, steps it by `mult`, and multiplies by the result."""
    consts = [init * pow(mult, skip + i, 1 << 32) & _MASK32 for i in range(_POOL_SIZE + 1)]
    return np.array(consts[:-1], dtype=np.uint64)[:, None], np.array(consts[1:], dtype=np.uint64)[:, None]


# a spawn word's four hashes follow the 16 that build the seed's pool (4
# words hashed in, then each mixed into the 3 others); the read-out starts afresh
_SPAWN_XOR, _SPAWN_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_READ_XOR, _READ_MUL = _hash_consts(_INIT_B, _MULT_B, 0)


def check_seed(seed) -> int:
    """`seed` as a Python int, if it is a Python or numpy integer (not a
    bool) in [0, 2**64 - 1]; a float or a bool raises TypeError."""
    if isinstance(seed, bool):  # operator.index reads a Python bool as 0 or 1
        raise TypeError(f"seed must be an integer, got {seed!r}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _seed_pool(seed: int) -> list[int]:
    """numpy's SeedSequence pool for entropy `seed` before its spawn word.
    The seed's 32-bit words, zero-padded to the pool size (as a non-empty
    spawn key pads them), are hashed into the pool, and then every word is
    mixed into every other."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return result ^ result >> 16

    pool = [hashmix(seed >> 32 * i & _MASK32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return pool


def spawn_keys(seed: int, runs: int, first: int = 0) -> np.ndarray:
    """The (runs, 2) uint64 Philox keys of runs first .. first + runs - 1:
    row j is `SeedSequence(seed, spawn_key=(first + j,)).generate_state(2,
    np.uint64)`, bit for bit.  The seed's pool is hashed once; the spawn
    word r is hashed and mixed into each pool word, and the four state
    words are read out and paired little-endian, for all runs at once in
    uint64 arithmetic reduced mod 2**32 (every product of two 32-bit words
    fits).  A run index of 2**32 or more would take a second spawn word,
    which this does not derive, so first + runs must not pass 2**32."""
    seed = check_seed(seed)
    if first < 0 or runs < 0 or first + runs > 2 ** 32:
        raise ValueError(f"runs {first} .. {first + runs - 1} do not fit one 32-bit spawn word")
    u64, mask = np.uint64, np.uint64(_MASK32)
    pool = np.array([_MIX_MULT_L * word for word in _seed_pool(seed)], dtype=np.uint64)[:, None]
    value = (np.arange(first, first + runs, dtype=np.uint64) ^ _SPAWN_XOR) * _SPAWN_MUL & mask
    value ^= value >> u64(16)
    value = pool - u64(_MIX_MULT_R) * value & mask  # the subtraction wraps mod 2**64
    value ^= value >> u64(16)
    value = (value ^ _READ_XOR) * _READ_MUL & mask
    value ^= value >> u64(16)
    return (value[0::2] | value[1::2] << u64(32)).T


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its precomputed key: the one state
    request Philox makes, generate_state(2, np.uint64)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class RunStreams:
    """One Philox stream for each of the runs first .. first + runs - 1,
    run r's from child r of SeedSequence(seed); first + runs <= 2**32."""

    def __init__(self, seed: int, runs: int, first: int = 0):
        self._generators = [
            np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in spawn_keys(seed, runs, first)
        ]

    def draw(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next k uniforms in [0, 1) of every run's stream, as (runs, k),
        written into `out` if given: a (runs, k) float64 array whose rows are
        each contiguous, such as the first k columns of a wider array.  Any
        other `out` raises ValueError before a stream is read."""
        shape = (len(self._generators), k)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or (k > 1 and out.strides[1] != out.itemsize):
            raise ValueError(f"out must be a float64 array of shape {shape} with contiguous rows")
        for generator, row in zip(self._generators, out):
            generator.random(out=row)
        return out


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    k = _U64(k)
    return (x << k) | (x >> (_U64(64) - k))


def _splitmix64(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One SplitMix64 step: returns (new_counter, output)."""
    x = x + _SPLITMIX_GAMMA
    z = x.copy()
    z = (z ^ (z >> _U64(30))) * _SPLITMIX_M1
    z = (z ^ (z >> _U64(27))) * _SPLITMIX_M2
    return x, z ^ (z >> _U64(31))


class Xoshiro256StarStar:
    """Vectorized xoshiro256** over n_streams independent substreams."""

    def __init__(self, seed: int, n_streams: int):
        base = np.full(n_streams, _U64(check_seed(seed)))
        counters = base ^ np.arange(n_streams, dtype=np.uint64)
        state = []
        for _ in range(4):
            counters, out = _splitmix64(counters)
            state.append(out)
        self._s = state  # four (n_streams,) uint64 arrays

    @property
    def n_streams(self) -> int:
        return self._s[0].shape[0]

    def next_raw(self) -> np.ndarray:
        """One xoshiro256** step per stream; returns (n_streams,) uint64."""
        s0, s1, s2, s3 = self._s
        result = _rotl(s1 * _FIVE, 7) * _NINE
        t = s1 << _U64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> np.ndarray:
        """One double in [0, 1) per stream (53-bit mantissa construction)."""
        return (self.next_raw() >> _U64(11)).astype(np.float64) * _INV_2_53
