"""A fixed reference computation that measures the host's speed right now.

On a shared host the same code runs up to 1.5x faster or slower as the
neighbours' load on the same cores comes and goes, and such a period can
last the whole of a run.  The benchmark times this reference between its
timed library calls and scales its pass times by REFERENCE_S over the
reference's time-weighted mean time in the run, so that a figure reads as
seconds on the host at its usual speed.

The reference uses only numpy and scipy, never the library, so a change to
the library cannot move it.  Its mix follows the library's: dense solves
the size of the largest belief MDP (the gradient search), many numpy calls
on 50-lane arrays (the simulator), and sparse products over a 185k-state
matrix (the joint oracle).  Without the sparse part the scaled oracle
times spread as widely as the raw ones.  The reference adds about 20 MB to
the peak RSS.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.sparse as sp

# The reference's median time on a 2-CPU cloud VM (scipy-openblas, one BLAS
# thread) at its usual speed; scaled figures read in seconds at that speed.
REFERENCE_S = 0.060


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 150
        self.dense = rng.random((n, n)) + n * np.eye(n)
        self.rhs = rng.random(n)
        self.lanes = np.arange(1, 51, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        n_joint, per_row = 185_000, 8
        cols = rng.integers(0, n_joint, size=n_joint * per_row, dtype=np.int32)
        indptr = np.arange(0, n_joint * per_row + 1, per_row, dtype=np.int32)
        self.sparse = sp.csr_matrix((np.full(cols.size, 1.0 / per_row), cols, indptr), shape=(n_joint, n_joint))
        self.vec = rng.random(n_joint)

    def run_once(self) -> float:
        """Time one pass of the reference, in seconds."""
        t0 = time.perf_counter()
        for _ in range(80):
            np.linalg.solve(self.dense, self.rhs)
        s = self.lanes.copy()
        for _ in range(2500):
            s ^= s << np.uint64(17)
            s ^= s >> np.uint64(7)
            (s >> np.uint64(11)).astype(np.float64) * (1.0 / 2**53) < 0.5
        v = self.vec
        for _ in range(3):
            v = 0.9 * (self.sparse @ v) + self.vec
        return time.perf_counter() - t0


@functools.cache
def reference() -> Reference:
    return Reference()


def scale_now(samples: int = 3) -> float:
    """REFERENCE_S over the reference's mean time now (see HostSpeed.scale)."""
    return REFERENCE_S * samples / sum(reference().run_once() for _ in range(samples))


class HostSpeed:
    """Samples the reference between timed library calls.

    `after(kind, seconds)` is called after each timed call; once
    SAMPLE_EVERY_S of library time has passed since the last sample it runs
    the reference once.  Each call is read against the mean of the samples
    just before and just after it.  `scale(kinds)` is REFERENCE_S over the
    mean of those readings for the calls of the given kinds, weighted by
    their time: multiply a time by it (divide a rate) to read it at the
    host's usual speed.
    """

    SAMPLE_EVERY_S = 0.1

    def __init__(self):
        self.samples: list[float] = []  # reference seconds, in order
        self.calls: list[tuple[str, float, int]] = []  # (kind, seconds, index of the sample before it)
        self._pending = 0.0

    def after(self, kind: str, seconds: float) -> None:
        self.calls.append((kind, seconds, len(self.samples) - 1))
        self._pending += seconds
        if self._pending >= self.SAMPLE_EVERY_S:
            self.samples.append(reference().run_once())
            self._pending = 0.0

    def scale(self, kinds=None) -> float:
        if not self.samples:
            self.samples.append(reference().run_once())
        last = len(self.samples) - 1
        total = weighted = 0.0
        for kind, seconds, before in self.calls:
            if kinds is not None and kind not in kinds:
                continue
            around = [self.samples[i] for i in {max(before, 0), min(before + 1, last)}]
            total += seconds
            weighted += seconds * sum(around) / len(around)
        return REFERENCE_S * total / weighted if weighted > 0 else 1.0
