"""Shared generators for randomized instances, and reference helpers.

Chains are sampled with Dirichlet(1) columns and rejected until they pass
validation with a second-eigenvalue bound, so auto-truncation depths stay
small and mixing is fast enough for the certificate suites.  The dense
helpers build the induced chain of a policy from the MDP's sparse matrices
(`transition_matrices`), independently of the structured solvers.  Value
iteration, the single-bandit dual derivative and the one-state OR decision
are references that only the tests use; the pipeline solves by policy
iteration, reads the derivative off its batch solve and applies the OR rule
through `or_active`.  `frozen_evaluate` and `frozen_q_values` are frozen
copies of the policy evaluation and the Q-values as they were before their
numpy calls were trimmed; the solvers must keep matching them byte for byte.
`frozen_choose_truncation`, `frozen_truncation_diagnostics` and
`frozen_aged_beliefs` are the truncation and the belief ageing as they were
before each matrix power became one BLAS call into a stack.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import settings

from uoisched import (
    BanditSpec,
    TruncationDiagnostics,
    TruncationTooDeep,
    ChainError,
    ChainSpec,
    PolicyAndValues,
    TruncatedBeliefMDP,
    build_truncated,
    choose_truncation,
    entropies,
    entropy,
    or_active,
    transition_matrices,
    validate_chain,
)
from uoisched.errors import SolverError
from uoisched.belief_mdp import _fannes_gap
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


def _frozen_spread(batch, grid_values, nodes):
    N, R = batch.n_max, grid_values.shape[-1]
    values = np.empty((batch.n_states, R))
    grid = batch.grid_ids.ravel()
    cells = np.flatnonzero(grid < batch.n_states)
    values[grid[cells]] = grid_values.reshape(-1, R)[cells]
    real = ~batch.chain_pad
    o = batch.omega_ids
    values[batch.reset_ids[o][real]] = nodes[:, :N][real]
    values[o] = nodes[:, N]
    return values


def _frozen_evaluate_multichain(batch, coef, carry, first, a_rho_o, costs, reach):
    N, R = batch.n_max, costs.shape[1]
    J = N + 1
    a = coef[..., :J]
    d = a.copy()
    for j in range(batch.l_max - 2, -1, -1):
        d[j] += carry[j, ..., None] * d[j + 1]
    o = batch.omega_ids
    eye = np.eye(J)
    p_nodes = np.zeros((batch.size, J, J))
    p_nodes[:, :N] = first[..., :J]
    p_nodes[:, N, :N] = a_rho_o[:, None] * batch.beliefs[o]
    p_nodes[:, N, N] = 1.0 - a_rho_o
    d_nodes = np.zeros_like(p_nodes)
    d_nodes[:, :N] = d[batch.first_row, np.arange(batch.size)]
    d_nodes[:, N, N] = 1.0
    rhs = np.zeros((batch.size, 2 * J, R))
    rhs[:, J:N + J] = first[..., N + 2:]
    rhs[:, N + J] = costs[o]
    mutual = reach & reach.transpose(0, 2, 1)
    recurrent = (mutual == reach).all(axis=2)
    anchor = recurrent & ~np.tril(mutual, -1).any(axis=2)
    system = np.block([[eye - p_nodes, np.zeros_like(p_nodes)], [d_nodes, eye - p_nodes]])
    system[:, :J] = np.where(anchor[..., None], np.hstack([np.zeros((J, J)), eye]), system[:, :J])
    x = np.linalg.solve(system, rhs)
    x += np.linalg.solve(system, rhs - system @ x)
    gain_nodes, bias_nodes = x[:, :J], x[:, J:]
    bias_nodes[anchor] = 0.0
    h = _frozen_spread(batch, a @ bias_nodes - d @ gain_nodes + coef[..., N + 2:], bias_nodes)
    g = _frozen_spread(batch, a @ gain_nodes, gain_nodes)
    return h, g


def frozen_evaluate(batch, actions, costs):
    """(values, gains, unichain) of `solvers._evaluate` as it was before the
    per-batch gather map and the two-call backward step: the same
    floating-point operations, one strided write and fancy write at a time."""
    B, N = batch.size, batch.n_max
    K, R = N + 2, costs.shape[1]
    beta = batch.discount
    average = beta == 1.0
    actions = np.asarray(actions)
    unichain, reach = batch.unichain(actions) if average else (np.ones(B, dtype=bool), None)
    a_rho = batch.on_grid(actions * batch.rho)
    carry = beta * (1.0 - a_rho)
    coef = np.zeros((batch.l_max, B, N, K + R))
    coef[..., :N] = (beta * a_rho)[..., None] * batch.grid_beliefs
    if average:
        coef[..., N + 1] = -1.0
    coef[..., K:] = batch.on_grid(costs)
    coef[-1, ..., N] += carry[-1]
    for j in range(batch.l_max - 2, -1, -1):
        coef[j] += carry[j, ..., None] * coef[j + 1]
    first = coef[batch.first_row, np.arange(B)]
    eye = np.eye(K)
    a_mat = np.zeros((B, K, K))
    rhs = np.zeros((B, K, R))
    pad = batch.chain_pad[..., None]
    a_mat[:, :N] = np.where(pad, eye[:N], eye[:N] - first[..., :K])
    rhs[:, :N] = np.where(pad, 0.0, first[..., K:])
    o = batch.omega_ids
    a_rho_o = actions[o] * batch.rho[o]
    a_mat[:, N, :N] = -beta * a_rho_o[:, None] * batch.beliefs[o]
    a_mat[:, N, N] = 1.0 - beta * (1.0 - a_rho_o)
    a_mat[:, N, N + 1] = 1.0 if average else 0.0
    rhs[:, N] = costs[o]
    a_mat[:, N + 1] = eye[0] if average else eye[N + 1]
    a_mat[~unichain] = eye
    y = np.linalg.solve(a_mat, rhs)
    if average:
        y[:, 0] = 0.0
    values = _frozen_spread(batch, coef[..., :K] @ y + coef[..., K:], y)
    gains = y[:, N + 1][batch.bandit_of]
    if not unichain.all():
        multi = ~unichain[batch.bandit_of, None]
        h, g = _frozen_evaluate_multichain(batch, coef, carry, first, a_rho_o, costs, reach)
        values, gains = np.where(multi, h, values), np.where(multi, g, gains)
    return values, gains, unichain


def frozen_q_values(batch, lam, values, beta):
    """(qa, qp) of `solvers._q_values` as it was before its calls were trimmed."""
    v_next = values[batch.passive_next]
    v_resets = values[batch.reset_ids_t]
    v_reset = batch.beliefs_t[0] * v_resets[0]
    for k in range(1, batch.n_max):
        v_reset += batch.beliefs_t[k] * v_resets[k]
    p_active = batch.rho * v_reset + (1.0 - batch.rho) * v_next
    return batch.costs + lam + beta * p_active, batch.costs + beta * v_next


def _frozen_max_gap_to_omega(powers, omega) -> float:
    return float(np.max(np.abs(powers - omega[:, None])))


def frozen_truncation_diagnostics(chain, L: int) -> TruncationDiagnostics:
    """`belief_mdp.truncation_diagnostics` as it was before the powers went
    into one stack: each probe copied transposed, one at a time."""
    probe_depth = 4 * L
    omega = chain.equilibrium
    h_omega = entropy(omega)
    n = chain.n_states
    powers = np.linalg.matrix_power(chain.transition, L)
    eta_l = _frozen_max_gap_to_omega(powers, omega)
    probes = np.empty((probe_depth + 1, n, n))
    cur = powers
    for j in range(probe_depth + 1):
        probes[j] = cur.T
        cur = chain.transition @ cur
    sigma = float(np.abs(entropies(probes) - h_omega).max())
    tail_tv = 0.5 * float(np.max(np.abs(cur - omega[:, None]).sum(axis=0)))
    sigma = max(sigma, _fannes_gap(tail_tv, n))
    return TruncationDiagnostics(
        truncation_L=L, eta_L=eta_l, sigma_L=sigma, b_h=float(np.log2(n)), probe_depth=probe_depth
    )


def frozen_choose_truncation(bandit, eta_target: float, l_max: int = 10000):
    """`belief_mdp.choose_truncation` as it was before the powers went into a
    stack, with the gap at l_max (the old message named the next one's)."""
    chain = bandit.chain
    omega = chain.equilibrium
    cur = chain.transition.copy()
    for L in range(1, l_max + 1):
        gap = _frozen_max_gap_to_omega(cur, omega)
        if gap <= eta_target:
            return L, frozen_truncation_diagnostics(chain, L)
        cur = chain.transition @ cur
    raise TruncationTooDeep(
        f"no L <= {l_max} reaches eta_target={eta_target:g} (gap at L={l_max}: {gap:.3g})"
    )


def frozen_aged_beliefs(transition, aged, L: int) -> np.ndarray:
    """`ChainSpec.aged_beliefs`' extension of the (N, have, N) ages `aged` to
    depth L, as it was before each age became one `np.dot` into its row."""
    n, have = aged.shape[0], aged.shape[1]
    deeper = np.empty((n, L, n))
    deeper[:, :have] = aged
    for k in range(n):
        x = transition[:, k].copy() if have == 0 else transition @ aged[k, -1]
        for age in range(have, L):
            deeper[k, age] = x
            x = transition @ x
    return deeper
