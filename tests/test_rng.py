import numpy as np
import pytest

from uoisched import Xoshiro256StarStar
from uoisched.rng import RunStreams

MASK = (1 << 64) - 1


class PurePythonOracle:
    """Scalar integer reimplementation of SplitMix64 + xoshiro256**."""

    def __init__(self, seed: int, stream: int):
        x = (seed ^ stream) & MASK
        state = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & MASK
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            state.append(z ^ (z >> 31))
        self.s = state

    @staticmethod
    def _rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    def next_raw(self) -> int:
        s = self.s
        result = (self._rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result


@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 64 - 1, 0xDEADBEEF])
def test_matches_pure_python_oracle(seed):
    n_streams = 5
    gen = Xoshiro256StarStar(seed, n_streams)
    oracles = [PurePythonOracle(seed, r) for r in range(n_streams)]
    for _ in range(200):
        raw = gen.next_raw()
        expected = [o.next_raw() for o in oracles]
        assert [int(v) for v in raw] == expected


def test_same_seed_same_sequence():
    a = Xoshiro256StarStar(987, 3)
    b = Xoshiro256StarStar(987, 3)
    for _ in range(50):
        assert np.array_equal(a.next_raw(), b.next_raw())


def test_streams_are_distinct():
    gen = Xoshiro256StarStar(42, 8)
    draws = np.array([gen.next_raw() for _ in range(32)])
    for i in range(8):
        for j in range(i + 1, 8):
            assert not np.array_equal(draws[:, i], draws[:, j])


def test_uniform_range_and_mean():
    gen = Xoshiro256StarStar(7, 64)
    u = np.concatenate([gen.uniform() for _ in range(500)])
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(-1, 2)
    with pytest.raises(ValueError):
        Xoshiro256StarStar(2 ** 64, 2)


def test_run_streams_read_each_run_in_order():
    # run r reads child r of SeedSequence(seed) on Philox, one raw output per
    # double, continuing across calls
    streams = RunStreams(31, 3)
    drawn = np.hstack([streams.draw(2), streams.draw(5)])
    for r in range(3):
        bits = np.random.Philox(np.random.SeedSequence(31).spawn(3)[r])
        assert drawn[r].tolist() == [(int(bits.random_raw()) >> 11) * 2.0 ** -53 for _ in range(7)]


def test_run_streams_reject_out_of_range_seed():
    with pytest.raises(ValueError):
        RunStreams(-1, 2)
    with pytest.raises(ValueError):
        RunStreams(2 ** 64, 2)
