"""Finite truncation of a single bandit's belief MDP and its error certificates.

State layout of the L-truncated MDP (N*L + 1 states):

    index 0                   equilibrium belief omega
    index (k-1)*L + n         the belief T^n e_k, for k in 1..N, n in 1..L

Passive action ages a belief by one step; from age L (and from omega) it
lands on omega.  Active action resets to T_k^1 with probability rho * x_k
and otherwise follows the passive successor.  Duplicate belief vectors are
kept as distinct symbolic (k, n) states so indexing stays bijective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooDeep
from .markov import ChainSpec, entropies, entropy

ROW_SUM_TOL = 1e-12


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
    """Construct the L-truncated belief MDP of a bandit, with read-only arrays."""
    if not 0.0 <= discount <= 1.0:
        raise ValueError("discount must be in [0, 1]")
    if L < 1:
        raise ValueError("L must be >= 1")
    chain = bandit.chain
    N = chain.n_states
    n = N * L + 1

    states = np.empty((n, N))
    states[0] = chain.equilibrium
    for k in range(1, N + 1):
        x = chain.transition[:, k - 1].copy()
        for age in range(1, L + 1):
            states[(k - 1) * L + age] = x
            x = chain.transition @ x
    costs = entropies(states)
    # age L (id divisible by L) and omega (id 0) age into omega
    ids = np.arange(n, dtype=np.int64)
    passive_next = np.where(ids % L == 0, 0, ids + 1)
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


def _max_gap_to_omega(powers: np.ndarray, omega: np.ndarray) -> float:
    return float(np.max(np.abs(powers - omega[:, None])))


def _fannes_gap(tv: float, n: int) -> float:
    """Entropy-continuity bound |H(p) - H(q)| <= tv*log2(n-1) + Hb(tv) at TV distance tv."""
    if tv <= 0.0:
        return 0.0
    if tv >= 1.0 - 1.0 / n:
        return float(np.log2(n))
    return float(tv * np.log2(max(n - 1, 1)) + entropy([tv, 1.0 - tv]))


def truncation_diagnostics(chain: ChainSpec, L: int) -> TruncationDiagnostics:
    """Compute (eta_L, sigma_L, B_H) for a chain at truncation depth L.

    sigma_L must dominate |H(T_k^{L+j}) - H(omega)| for every j >= 0.  We probe
    j = 0..4L directly (probe_depth = 4L) and close the tail with a
    Fannes-type bound at the depth-5L total-variation gap; TV to omega never
    increases under the chain map, so that single gap bounds the tail.
    """
    probe_depth = 4 * L
    omega = chain.equilibrium
    h_omega = entropy(omega)
    n = chain.n_states

    powers = np.linalg.matrix_power(chain.transition, L)
    eta_l = _max_gap_to_omega(powers, omega)

    probes = np.empty((probe_depth + 1, n, n))  # probe j's rows: the beliefs T_k^{L+j}
    cur = powers
    for j in range(probe_depth + 1):
        probes[j] = cur.T
        cur = chain.transition @ cur
    sigma = float(np.abs(entropies(probes) - h_omega).max())
    tail_tv = 0.5 * float(np.max(np.abs(cur - omega[:, None]).sum(axis=0)))
    sigma = max(sigma, _fannes_gap(tail_tv, n))

    return TruncationDiagnostics(
        truncation_L=L,
        eta_L=eta_l,
        sigma_L=sigma,
        b_h=float(np.log2(n)),
        probe_depth=probe_depth,
    )


def choose_truncation(
    bandit: BanditSpec, eta_target: float, l_max: int = 10000
) -> tuple[int, TruncationDiagnostics]:
    """Smallest L <= l_max with max_k ||T_k^L - omega||_inf <= eta_target."""
    if eta_target <= 0.0:
        raise ValueError("eta_target must be > 0")
    chain = bandit.chain
    omega = chain.equilibrium
    cur = chain.transition.copy()
    for L in range(1, l_max + 1):
        if _max_gap_to_omega(cur, omega) <= eta_target:
            return L, truncation_diagnostics(chain, L)
        cur = chain.transition @ cur
    raise TruncationTooDeep(
        f"no L <= {l_max} reaches eta_target={eta_target:g} "
        f"(gap at L={l_max}: {_max_gap_to_omega(cur, omega):.3g})"
    )


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
