"""Finite Markov chains, Shannon entropy, and belief-state arithmetic.

Transition matrices are stored column-stochastic: entry (j, k) is the
probability of moving to state j given that the current state is k.  With
this convention belief propagation is the matrix-vector product ``T @ x``
and column k of ``T`` is the belief held right after observing state k.
States are numbered 1..N in the public API (0 is reserved for the
equilibrium belief in serialized state labels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotStochastic,
    Periodic,
    Reducible,
)

COLUMN_SUM_SLACK = 1e-9
EQUILIBRIUM_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ChainSpec:
    """A validated N-state chain: column-stochastic matrix plus its equilibrium."""

    n_states: int
    transition: np.ndarray   # (N, N), column-stochastic
    equilibrium: np.ndarray  # (N,), fixed point of transition

    def __post_init__(self):
        object.__setattr__(self, "transition", _readonly(self.transition))
        object.__setattr__(self, "equilibrium", _readonly(self.equilibrium))


def _closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of stacked boolean adjacency matrices
    `edges` (..., n, n): entry (u, v) is True when v is reachable from u.

    A path between two nodes needs at most n - 1 edges, and each boolean
    squaring doubles the path length covered, so ceil(log2(n - 1))
    squarings find it."""
    n = edges.shape[-1]
    reach = edges | np.eye(n, dtype=bool)
    for _ in range(max(n - 2, 0).bit_length()):
        reach = reach @ reach  # boolean matmul: or over k of reach[u, k] and reach[k, v]
    return reach


def _strong_components(edges: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the digraph with boolean adjacency
    `edges` (edges[u, v]: an edge u -> v), as sorted 1-based state lists in
    order of their smallest state: the rows of the mutual reachability
    relation read off `_closure`."""
    reach = _closure(edges)
    mutual = reach & reach.T
    roots = np.unique(mutual.argmax(axis=1))  # each state's component by its smallest state
    return [[int(v) + 1 for v in np.flatnonzero(mutual[r])] for r in roots]


def _chain_period(edges: np.ndarray) -> int:
    """Period of the strongly connected digraph with boolean adjacency
    `edges`: the gcd of level[u] + 1 - level[v] over its edges u -> v, with
    breadth-first levels from state 0 (each frontier the boolean product of
    the last with `edges`).  Any root-to-state path lengths work as levels,
    because path-length differences to a state are multiples of the period."""
    level = np.full(edges.shape[0], -1)
    frontier = np.arange(edges.shape[0]) == 0
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = (frontier @ edges) & (level < 0)
        depth += 1
    u, v = np.nonzero(edges)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


def validate_chain(raw_matrix) -> ChainSpec:
    """Validate a column-stochastic matrix and compute its equilibrium distribution.

    Raises NotStochastic / Reducible / Periodic naming the offending column or
    structure, both read off the boolean adjacency of the positive entries.
    The equilibrium solves (T - I) w = 0 with the normalization row sum(w) = 1
    replacing one equation (direct linear solve, not power iteration: exact to
    solver precision for the small N used here).
    """
    t = np.asarray(raw_matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotStochastic(f"transition matrix must be square, got shape {t.shape}")
    n = t.shape[0]
    if n < 2:
        raise NotStochastic("need at least 2 states")
    outside = ~((t >= -1e-12) & (t <= 1.0 + 1e-12))  # NaN fails both comparisons
    if np.any(outside):
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise NotStochastic(f"entry ({i}, {j}) = {float(t[i, j])} outside [0, 1]")
    sums = t.sum(axis=0)
    off = np.abs(sums - 1.0)
    if np.any(off > COLUMN_SUM_SLACK):
        k = int(np.argmax(off))
        raise NotStochastic(f"column {k + 1} sums to {sums[k]:.12g}, off by more than 1e-9")
    t = np.clip(t, 0.0, 1.0) / sums  # renormalize the <=1e-9 dust away

    edges = t.T > 0.0  # edge k -> j iff t[j, k] > 0
    groups = _strong_components(edges)
    if len(groups) != 1:
        raise Reducible(f"chain is not irreducible; strongly connected components: {groups}")

    period = _chain_period(edges)
    if period != 1:
        raise Periodic(f"chain is periodic with period {period}")

    a = t - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    omega = np.linalg.solve(a, rhs)
    omega = np.clip(omega, 0.0, None)
    omega /= omega.sum()
    if np.max(np.abs(t @ omega - omega)) > EQUILIBRIUM_TOL:
        raise NotStochastic("equilibrium solve failed residual check")
    return ChainSpec(n_states=n, transition=t, equilibrium=omega)


def as_belief(x, n_states: int | None = None) -> np.ndarray:
    """Coerce to a probability vector; entries >= 0 and sum 1 within 1e-12."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"belief must be a vector, got shape {x.shape}")
    if n_states is not None and x.shape[0] != n_states:
        raise DimensionMismatch(f"belief has length {x.shape[0]}, chain has {n_states} states")
    if np.any(x < -1e-12):
        raise ValueError("belief has negative entries")
    if abs(x.sum() - 1.0) > 1e-12:
        raise ValueError(f"belief sums to {x.sum():.15g}, not 1")
    return np.clip(x, 0.0, None)


def entropy(x) -> float:
    """Shannon entropy in bits of one belief: `entropies` of a single row."""
    return float(entropies(x))


def entropies(rows) -> np.ndarray:
    """Shannon entropy in bits, with 0*log(0) = 0, of every row (last axis)
    of an array of beliefs; round-off below 0 is clamped to 0 (-0.0 stays).
    `entropy` is this function on one row, so the two agree bit for bit."""
    x = np.asarray(rows, dtype=float)
    pos = x > 0.0
    terms = np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)
    h = -terms.sum(axis=-1)
    return np.where(h < 0.0, 0.0, h)  # as max(h, 0.0), which keeps -0.0


def belief_propagate(chain: ChainSpec, x) -> np.ndarray:
    """One passive step: returns T @ x."""
    x = as_belief(x, chain.n_states)
    return chain.transition @ x


def belief_reset(chain: ChainSpec, observed_state: int) -> np.ndarray:
    """Belief right after observing state k (1-based): column k of the matrix."""
    k = int(observed_state)
    if not 1 <= k <= chain.n_states:
        raise IndexOutOfRange(f"state {k} not in 1..{chain.n_states}")
    return chain.transition[:, k - 1].copy()


def n_step_column(chain: ChainSpec, k: int, n: int) -> np.ndarray:
    """T^n e_k by repeated propagation from belief_reset(k); n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = belief_reset(chain, k)
    for _ in range(n - 1):
        x = chain.transition @ x
    return x


def uoi(chain: ChainSpec, x) -> float:
    """Uncertainty of information of belief x: entropy of the propagated belief."""
    return entropy(belief_propagate(chain, x))
