"""Per-run random streams for reproducible simulation.

`RunStreams` gives simulation run r its own numpy Philox stream, seeded by
`SeedSequence(seed, spawn_key=(r,))`: child r of `SeedSequence(seed).spawn`,
bit for bit.  A child depends only on (seed, r), so run r draws the same
values however many runs are simulated with it and wherever a range of runs
starts, and different seeds give unrelated streams.  Each double comes from
one 64-bit output by the 53-bit construction (raw >> 11) * 2**-53 of numpy's
`Generator.random`.
Runs fill whole blocks of their upcoming draws with one call each; every
stream is consumed in order, so results do not depend on the block size.

`Xoshiro256StarStar` is a standalone vectorized xoshiro256** generator,
implemented from the published algorithm on uint64 numpy arrays and seeded
per substream by expanding (seed XOR stream_index) through SplitMix64.  The
simulator does not use it.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = _U64(0x94D049BB133111EB)
_FIVE = _U64(5)
_NINE = _U64(9)
_INV_2_53 = float(2.0 ** -53)


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(seed)


class RunStreams:
    """One Philox stream for each of the runs first .. first + runs - 1,
    run r's from child r of SeedSequence(seed)."""

    def __init__(self, seed: int, runs: int, first: int = 0):
        seed = _check_seed(seed)
        self._generators = [
            np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
            for r in range(first, first + runs)
        ]

    def draw(self, k: int) -> np.ndarray:
        """The next k uniforms in [0, 1) of every run's stream, as (runs, k)."""
        out = np.empty((len(self._generators), k))
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
        base = np.full(n_streams, _U64(_check_seed(seed)))
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
