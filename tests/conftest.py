"""Shared generators for randomized instances, and reference helpers.

Chains are sampled with Dirichlet(1) columns and rejected until they pass
validation with a second-eigenvalue bound, so auto-truncation depths stay
small and mixing is fast enough for the certificate suites.  The dense
helpers build the induced chain of a policy from the MDP's sparse matrices
(`transition_matrices`), independently of the structured solvers.  Value
iteration, the single-bandit dual derivative and the one-state OR decision
are references that only the tests use; the pipeline solves by policy
iteration, reads the derivative off its batch solve and applies the OR rule
through `or_active`.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import settings

from uoisched import (
    BanditSpec,
    ChainError,
    ChainSpec,
    PolicyAndValues,
    TruncatedBeliefMDP,
    build_truncated,
    choose_truncation,
    or_active,
    transition_matrices,
    validate_chain,
)
from uoisched.errors import SolverError
from uoisched.index_policy import _indices_from_values
from uoisched.solvers import BanditBatch, _evaluate, _greedy, _one_bandit, _q_values

# a failing property test prints the `@reproduce_failure` line that replays
# it; deadlines, example counts, the example database and seeds are unchanged
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")

FIG1 = [[0.99, 0.3], [0.01, 0.7]]


def random_chain(rng: np.random.Generator, n: int, max_eig2: float = 0.8) -> ChainSpec:
    while True:
        t = rng.dirichlet(np.ones(n), size=n).T  # columns are next-state laws
        try:
            chain = validate_chain(t)
        except ChainError:
            continue
        eigs = np.sort(np.abs(np.linalg.eigvals(t)))[::-1]
        if eigs[1] <= max_eig2:
            return chain


def random_bandit(rng: np.random.Generator, n: int, label: str, rho=None, max_eig2: float = 0.8) -> BanditSpec:
    if rho is None:
        rho = float(rng.choice([0.7, 0.8, 1.0]))
    return BanditSpec(chain=random_chain(rng, n, max_eig2), success_prob=rho, label=label)


def mixed_mdps(beta: float) -> list:
    """Six truncated bandits with N in {2, 3, 4}, rho in {0.7, 0.8, 1.0} and
    L from 1 to 37, for batched-solver tests."""
    rng = np.random.default_rng(77)
    shapes = [(2, 1, 0.7), (4, 6, 1.0), (3, 13, 0.8), (2, 22, 1.0), (4, 37, 0.7), (3, 9, 1.0)]
    return [build_truncated(random_bandit(rng, n, f"x{i}", rho=rho), L, beta) for i, (n, L, rho) in enumerate(shapes)]


def rho_one_pair(seed: int) -> list:
    """Two random bandits at rho = 1, truncated at eta = 1e-6: the two-bandit
    rho = 1 searches, where policy iteration meets multichain iterates (seed
    4's warm-started sweeps do)."""
    rng = np.random.default_rng(seed)
    bandits = [random_bandit(rng, int(rng.integers(2, 5)), f"r{i}", rho=1.0) for i in range(2)]
    return [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]


@pytest.fixture
def fig1_chain() -> ChainSpec:
    return validate_chain(FIG1)


def induced_transition(mdp, actions) -> sp.csr_matrix:
    """Transition matrix of the chain induced by a binary policy."""
    actions = np.asarray(actions)
    d_act = sp.diags(actions.astype(float))
    d_pas = sp.diags(1.0 - actions.astype(float))
    passive, active = transition_matrices(mdp)
    p = (d_act @ active + d_pas @ passive).tocsr()
    p.eliminate_zeros()
    return p


def active_passive(mdp, values, lam):
    """Continuation values (a, r) of the active and passive action in every
    state: the solvers' Q-values at charge lam less the state costs.
    Discounted, a = lam + beta*rho*sum_k x_k V(T_k^1) + beta*(1-rho)*V(TX)
    and r = beta*V(TX); at discount 1 the undiscounted analogs in Z."""
    qa, qp = _q_values(BanditBatch([mdp]), lam, np.asarray(values, dtype=float), mdp.discount)
    return qa - mdp.costs_passive, qp - mdp.costs_passive


def value_iteration_discounted(
    mdp: TruncatedBeliefMDP, lam: float, tol: float = 1e-8, max_iters: int = 2_000_000
) -> PolicyAndValues:
    """Classic value iteration; stops when the update is <= tol*(1-beta)/(2*beta),
    which certifies a tol-accurate value function."""
    batch = _one_bandit(mdp, False, "value_iteration_discounted")
    beta = mdp.discount
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if beta == 0.0:
        qa, qp = _q_values(batch, lam, np.zeros(mdp.n_states), 0.0)
        actions = _greedy(qa, qp)
        return PolicyAndValues(actions, np.minimum(qa, qp), 0.0, lam)
    stop = tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(mdp.n_states)
    for _ in range(max_iters):
        qa, qp = _q_values(batch, lam, v, beta)
        v_new = np.minimum(qa, qp)
        if np.max(np.abs(v_new - v)) <= stop:
            return PolicyAndValues(_greedy(qa, qp), v_new, 0.0, lam)
        v = v_new
    raise SolverError("value iteration failed to converge (should be impossible)")


def derivative(mdp: TruncatedBeliefMDP, optimal_policy, initial_state: int) -> float:
    """dV/dlam (or dg/dlam) at the policy's lam: the policy's expected
    discounted number of activations from the initial state, or its long-run
    activation rate from there, in [0, 1]; from one policy evaluation under
    the action-indicator cost."""
    actions = optimal_policy.actions if isinstance(optimal_policy, PolicyAndValues) else np.asarray(optimal_policy)
    values, rates, _ = _evaluate(BanditBatch([mdp]), actions, actions.astype(float)[:, None])
    return float((rates if mdp.discount == 1.0 else values)[initial_state, 0])


def or_decision(mdp: TruncatedBeliefMDP, values, state: int, lambda_star: float) -> bool:
    """True iff the OR policy transmits in this state: `or_active` of its index under `values`."""
    w = _indices_from_values(mdp, np.asarray(values, dtype=float))[state]
    return bool(or_active(w, mdp.discount, lambda_star))


def force_multichain(monkeypatch) -> None:
    """Declare every policy multichain, keeping its real reach matrix, so
    every average-cost evaluation takes the multichain system."""
    monkeypatch.setattr(
        BanditBatch, "unichain", lambda self, actions: (np.zeros(self.size, dtype=bool), self.reach(actions))
    )


def recurrent_class_count(p: sp.csr_matrix) -> int:
    """Closed strongly connected components of the chain's graph."""
    n_comp, labels = csgraph.connected_components(p > 0, directed=True, connection="strong")
    has_exit = np.zeros(n_comp, dtype=bool)
    coo = p.tocoo()
    for i, j in zip(coo.row, coo.col):
        if labels[i] != labels[j]:
            has_exit[labels[i]] = True
    return int(np.sum(~has_exit))
