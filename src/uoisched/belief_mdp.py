"""Finite truncation of a single bandit's belief MDP and its error certificates.

State layout of the L-truncated MDP (N*L + 1 states):

    index 0                   equilibrium belief omega
    index (k-1)*L + n         the belief T^n e_k, for k in 1..N, n in 1..L

Passive action ages a belief by one step; from age L (and from omega) it
lands on omega.  Active action resets to T_k^1 with probability rho * x_k
and otherwise follows the passive successor.  Duplicate belief vectors are
kept as distinct symbolic (k, n) states so indexing stays bijective.  The
beliefs are copied from the chain's `aged_beliefs`, so a second build on the
same chain object (the other criterion, a simulation after the index solve)
propagates nothing.

The depth L and its certificates walk sequential matrix powers, T^{n+1} =
T @ T^n.  Each power is one BLAS call (`np.dot`) into its slot of a stack,
and the gaps to omega and the entropies are taken over a whole stack at
once: the per-call cost of numpy, not the arithmetic, sets the time of
these tiny products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooDeep
from .markov import ChainSpec, entropies, entropy

ROW_SUM_TOL = 1e-12
_POWER_BLOCK = 16  # matrix powers made per gap test in choose_truncation


@dataclass(frozen=True)
class BanditSpec:
    chain: ChainSpec
    success_prob: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success_prob must be in (0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class TruncationDiagnostics:
    """Certificate inputs for the approximation-error bounds."""

    truncation_L: int
    eta_L: float       # max_k || T_k^L - omega ||_inf
    sigma_L: float     # max entropy gap |H(T_k^{L+j}) - H(omega)| over the probed tail
    b_h: float         # entropy bound over the state space: log2 N
    probe_depth: int   # j was probed directly for 0..probe_depth; beyond that a tail bound


@dataclass(frozen=True)
class TruncatedBeliefMDP:
    bandit: BanditSpec
    truncation_L: int
    discount: float                       # beta in [0,1]; 1.0 flags average-cost use
    states: np.ndarray                    # (n, N) belief vector per state
    costs_passive: np.ndarray             # (n,) entropy of each state
    passive_next: np.ndarray              # (n,) deterministic passive successor
    reset_states: np.ndarray              # (N,) ids of T_k^1 for k = 1..N

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def state_index(self, k: int, n: int) -> int:
        """Id of symbolic state (k, n); (0, 0) is omega."""
        if k == 0 and n == 0:
            return 0
        N, L = self.bandit.chain.n_states, self.truncation_L
        if not (1 <= k <= N and 1 <= n <= L):
            raise IndexError(f"no state (k={k}, n={n}) with N={N}, L={L}")
        return (k - 1) * L + n


def state_labels(N: int, L: int) -> list[tuple[int, int]]:
    """Symbolic (k, n) label of each state id, in id order."""
    return [(0, 0)] + [(k, n) for k in range(1, N + 1) for n in range(1, L + 1)]


def nearest_state(states: np.ndarray, belief) -> int:
    """Id of the state closest to `belief` in max norm (initial-state mapping)."""
    belief = np.asarray(belief, dtype=float)
    gaps = np.max(np.abs(states - belief[None, :]), axis=1)
    return int(np.argmin(gaps))


def build_truncated(bandit: BanditSpec, L: int, discount: float) -> TruncatedBeliefMDP:
    """Construct the L-truncated belief MDP of a bandit, with read-only arrays;
    the beliefs are copies of the chain's `aged_beliefs(L)`."""
    if not 0.0 <= discount <= 1.0:
        raise ValueError("discount must be in [0, 1]")
    if L < 1:
        raise ValueError("L must be >= 1")
    chain = bandit.chain
    N = chain.n_states
    n = N * L + 1

    states = np.empty((n, N))
    states[0] = chain.equilibrium
    states[1:] = chain.aged_beliefs(L).reshape(N * L, N)  # (k, n) at id (k - 1) * L + n
    costs = entropies(states)
    # age L (id divisible by L) and omega (id 0) age into omega
    passive_next = np.arange(1, n + 1, dtype=np.int64)
    passive_next[::L] = 0
    reset_states = np.arange(N, dtype=np.int64) * L + 1
    # an active row sums to rho * sum(x) + 1 - rho; a passive row is a single 1
    rho = bandit.success_prob
    if np.max(np.abs(rho * states.sum(axis=1) + (1.0 - rho) - 1.0)) > ROW_SUM_TOL:
        raise AssertionError("active transition rows do not sum to 1")

    for arr in (states, costs, passive_next, reset_states):
        arr.setflags(write=False)
    return TruncatedBeliefMDP(
        bandit=bandit,
        truncation_L=L,
        discount=float(discount),
        states=states,
        costs_passive=costs,
        passive_next=passive_next,
        reset_states=reset_states,
    )


def transition_matrices(mdp: TruncatedBeliefMDP):
    """(passive, active) n x n CSR transition matrices, built on request as a
    reference; the solvers use passive_next, reset_states and states."""
    import scipy.sparse as sp

    n, N = mdp.states.shape
    rho = mdp.bandit.success_prob
    p_passive = sp.csr_matrix((np.ones(n), (np.arange(n), mdp.passive_next)), shape=(n, n))

    rows = np.repeat(np.arange(n), N + 1)
    cols = np.empty((n, N + 1), dtype=np.int64)
    vals = np.empty((n, N + 1))
    cols[:, :N] = mdp.reset_states[None, :]
    cols[:, N] = mdp.passive_next
    vals[:, :N] = rho * mdp.states
    vals[:, N] = 1.0 - rho
    p_active = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))
    p_active.sum_duplicates()
    p_active.eliminate_zeros()
    return p_passive, p_active


def _fannes_gap(tv: float, n: int) -> float:
    """Entropy-continuity bound |H(p) - H(q)| <= tv*log2(n-1) + Hb(tv) at TV distance tv."""
    if tv <= 0.0:
        return 0.0
    if tv >= 1.0 - 1.0 / n:
        return float(np.log2(n))
    return float(tv * np.log2(max(n - 1, 1)) + entropy([tv, 1.0 - tv]))


def _powers(t: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Fill stack[1:] with t @ stack[0], t @ stack[1], ...: one `np.dot`
    into its slot per power, the same BLAS product as `t @ prev`."""
    for i in range(1, len(stack)):
        np.dot(t, stack[i - 1], out=stack[i])
    return stack


def _gaps_to_omega(powers: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """max_k ||T_k^n - omega||_inf of each matrix in a (..., N, N) stack."""
    return np.abs(powers - omega[:, None]).max(axis=(-2, -1))


def truncation_diagnostics(chain: ChainSpec, L: int) -> TruncationDiagnostics:
    """Compute (eta_L, sigma_L, B_H) for a chain at truncation depth L.

    sigma_L must dominate |H(T_k^{L+j}) - H(omega)| for every j >= 0.  We probe
    j = 0..4L directly (probe_depth = 4L) and close the tail with a
    Fannes-type bound at the depth-5L total-variation gap; TV to omega never
    increases under the chain map, so that single gap bounds the tail.
    T^L is `matrix_power`'s; the deeper powers follow it one `np.dot` each.
    """
    probe_depth = 4 * L
    omega = chain.equilibrium
    n = chain.n_states

    stack = np.empty((probe_depth + 2, n, n))  # stack[j] = T^{L+j}
    stack[0] = np.linalg.matrix_power(chain.transition, L)
    _powers(chain.transition, stack)
    eta_l = float(_gaps_to_omega(stack[0], omega))
    # the rows of stack[j].T are the beliefs T_k^{L+j}; they are copied into
    # rows, as a sum along a strided axis may add in another order
    beliefs = np.ascontiguousarray(stack[:-1].transpose(0, 2, 1))
    sigma = float(np.abs(entropies(beliefs) - entropy(omega)).max())
    tail_tv = 0.5 * float(np.max(np.abs(stack[-1] - omega[:, None]).sum(axis=0)))
    sigma = max(sigma, _fannes_gap(tail_tv, n))

    return TruncationDiagnostics(
        truncation_L=L,
        eta_L=eta_l,
        sigma_L=sigma,
        b_h=float(np.log2(n)),
        probe_depth=probe_depth,
    )


def truncation_depth(bandit: BanditSpec, eta_target: float, l_max: int = 10000) -> int:
    """Smallest L <= l_max with max_k ||T_k^L - omega||_inf <= eta_target.

    The powers T^L = T @ T^{L-1} are made _POWER_BLOCK at a time into one
    stack, whose gaps are tested together."""
    if eta_target <= 0.0:
        raise ValueError("eta_target must be > 0")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    chain = bandit.chain
    t, omega = chain.transition, chain.equilibrium
    stack = np.empty((min(_POWER_BLOCK, l_max), chain.n_states, chain.n_states))
    stack[0] = t
    for first in range(1, l_max + 1, len(stack)):  # stack[i] = T^(first + i)
        if first > 1:
            np.dot(t, stack[-1], out=stack[0])
        gaps = _gaps_to_omega(_powers(t, stack), omega)[: l_max - first + 1]
        hits = np.flatnonzero(gaps <= eta_target)
        if hits.size:
            return first + int(hits[0])
    raise TruncationTooDeep(
        f"no L <= {l_max} reaches eta_target={eta_target:g} (gap at L={l_max}: {gaps[-1]:.3g})"
    )


def choose_truncation(
    bandit: BanditSpec, eta_target: float, l_max: int = 10000
) -> tuple[int, TruncationDiagnostics]:
    """`truncation_depth` and the certificates at that depth."""
    L = truncation_depth(bandit, eta_target, l_max)
    return L, truncation_diagnostics(bandit.chain, L)


def discounted_error_bound(
    diag: TruncationDiagnostics, lam: float, beta: float, n_states: int, rho: float
) -> float:
    """Value-error certificate for the L-truncation of a discounted bandit:
    beta*sigma_L/(1-beta) + beta*rho*eta_L*N*(B_H+lambda)/(1-beta)^2."""
    if beta >= 1.0:
        raise ValueError("beta must be < 1")
    if beta == 0.0:
        return 0.0
    term1 = beta * diag.sigma_L / (1.0 - beta)
    term2 = beta * rho * diag.eta_L * n_states * (diag.b_h + lam) / (1.0 - beta) ** 2
    return term1 + term2


def average_error_bound(diag: TruncationDiagnostics) -> float:
    """Average-cost certificate: |g - g^L| <= sigma_L."""
    return diag.sigma_L
