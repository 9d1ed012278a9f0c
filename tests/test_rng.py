import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoisched import Xoshiro256StarStar
from uoisched.rng import RunStreams, check_seed, spawn_keys

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


def test_run_streams_draw_into_the_rows_of_a_wider_buffer():
    # the first k columns of a padded buffer take the same values as a
    # fresh array, and the padding is left as it was
    padded = np.full((3, 9), -1.0)
    streams = RunStreams(31, 3)
    assert np.shares_memory(streams.draw(2, out=padded[:, :2]), padded)
    streams.draw(5, out=padded[:, 2:7])
    fresh = RunStreams(31, 3)
    assert padded[:, :7].tolist() == np.hstack([fresh.draw(2), fresh.draw(5)]).tolist()
    assert (padded[:, 7:] == -1.0).all()


@pytest.mark.parametrize(
    "out",
    [
        np.empty((3, 4)),  # one column short
        np.empty((2, 5)),  # one run short
        np.empty((3, 10))[:, ::2],  # rows not contiguous
        np.empty((5, 3)).T,  # rows not contiguous
        np.empty((3, 5), dtype=np.float32),
    ],
)
def test_run_streams_draw_rejects_a_bad_out_before_reading(out):
    streams = RunStreams(31, 3)
    with pytest.raises(ValueError):
        streams.draw(5, out=out)
    # no stream was read
    assert streams.draw(5).tolist() == RunStreams(31, 3).draw(5).tolist()


def test_run_streams_reject_out_of_range_seed():
    with pytest.raises(ValueError):
        RunStreams(-1, 2)
    with pytest.raises(ValueError):
        RunStreams(2 ** 64, 2)


def seed_sequence_keys(seed, runs, first):
    """The Philox keys numpy derives for children first .. first + runs - 1
    of SeedSequence(seed), one SeedSequence at a time."""
    return [
        np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64).tolist()
        for r in range(first, first + runs)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spawn_keys_are_seed_sequence_keys(data):
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    runs = data.draw(st.integers(0, 6), label="runs")
    first = data.draw(st.integers(0, 2 ** 32 - runs), label="first")
    keys = spawn_keys(seed, runs, first)
    assert keys.dtype == np.uint64 and keys.shape == (runs, 2)
    assert keys.tolist() == seed_sequence_keys(seed, runs, first)


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
@pytest.mark.parametrize("first", [0, 2 ** 31, 2 ** 32 - 4])
def test_spawn_keys_at_the_edges_of_the_seed_and_spawn_words(seed, first):
    assert spawn_keys(seed, 4, first).tolist() == seed_sequence_keys(seed, 4, first)


def test_run_streams_at_the_last_spawn_word_draw_the_seed_sequence_children():
    seed, first = 2 ** 64 - 1, 2 ** 32 - 2
    drawn = RunStreams(seed, 2, first=first).draw(3)
    for row, r in zip(drawn, (first, first + 1)):
        child = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
        assert row.tolist() == child.random(3).tolist()


@pytest.mark.parametrize("runs, first", [(1, 2 ** 32), (2, 2 ** 32 - 1), (2 ** 32 + 1, 0)])
def test_runs_past_one_spawn_word_are_rejected(runs, first):
    # a run index of 2**32 or more would be a second spawn word
    with pytest.raises(ValueError, match="32-bit spawn word"):
        spawn_keys(5, runs, first)
    with pytest.raises(ValueError, match="32-bit spawn word"):
        RunStreams(5, runs, first=first)


@pytest.mark.parametrize("seed", [3.7, 3.0, True, False, np.True_, "3", None, np.float64(3.0)])
def test_seeds_must_be_integers(seed):
    # a float was truncated and a bool read as 0 or 1
    with pytest.raises(TypeError, match="seed must be an integer"):
        check_seed(seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        RunStreams(seed, 2)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2 ** 64 - 1), np.uint32(7), 2 ** 64 - 1])
def test_numpy_integer_seeds_draw_as_python_ints(seed):
    assert check_seed(seed) == int(seed) and type(check_seed(seed)) is int
    assert RunStreams(seed, 2).draw(3).tolist() == RunStreams(int(seed), 2).draw(3).tolist()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, np.int64(-1)])
def test_check_seed_rejects_out_of_range(seed):
    with pytest.raises(ValueError, match="64-bit unsigned integer"):
        check_seed(seed)
