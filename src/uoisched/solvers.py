"""Exact solvers for a single truncated belief MDP.

Discounted: value iteration, policy iteration (Howard), and linear policy
evaluation.  Average cost: relative value iteration with span stopping,
followed by an exact anchored policy evaluation for (g, Z).

Tie-break convention used everywhere: the ACTIVE action is taken whenever
a(X) <= r(X) (up to ACTIVE_TIE_TOL), where a and r are the active/passive
continuation values.  Applying the same rule in every solver makes the
one-sided derivative choice at breakpoints consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .belief_mdp import TruncatedBeliefMDP
from .errors import MultichainPolicy, NoConvergence, SolverError

ACTIVE_TIE_TOL = 1e-9

DISCOUNTED = "discounted"
AVERAGE = "average"


@dataclass
class PolicyAndValues:
    """A stationary binary policy with its value function.

    For the discounted criterion `values` is V and `gain` is 0; for the
    average criterion `values` is the differential value Z anchored at the
    T_1^1 state and `gain` is the average cost g.
    """

    actions: np.ndarray
    values: np.ndarray
    gain: float
    lam: float
    criterion: str
    degraded: bool = field(default=False)

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.actions == 1)


def _anchor_state(mdp: TruncatedBeliefMDP) -> int:
    return int(mdp.reset_states[0])  # the T_1^1 state


def _q_values(mdp, lam, values, beta):
    qa = mdp.costs_passive + lam + beta * (mdp.active_transitions @ values)
    qp = mdp.costs_passive + beta * (mdp.passive_transitions @ values)
    return qa, qp


def _greedy(qa, qp):
    return (qa <= qp + ACTIVE_TIE_TOL).astype(np.int8)


def induced_transition(mdp: TruncatedBeliefMDP, actions) -> sp.csr_matrix:
    """Transition matrix of the chain induced by a binary policy."""
    actions = np.asarray(actions)
    d_act = sp.diags(actions.astype(float))
    d_pas = sp.diags(1.0 - actions.astype(float))
    p = (d_act @ mdp.active_transitions + d_pas @ mdp.passive_transitions).tocsr()
    p.eliminate_zeros()
    return p


def _solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.linalg.solve(a, b)
    r = b - a @ x
    if np.max(np.abs(r)) > 1e-11 * max(1.0, np.max(np.abs(b))):
        x = x + np.linalg.solve(a, r)  # one step of iterative refinement
    return x


def policy_evaluation_discounted(mdp: TruncatedBeliefMDP, actions, cost_per_state) -> np.ndarray:
    """Solve (I - beta * P_pi) v = cost for a fixed policy."""
    beta = mdp.discount
    if beta >= 1.0:
        raise ValueError("policy_evaluation_discounted requires discount < 1")
    cost = np.asarray(cost_per_state, dtype=float)
    if cost.shape[0] != mdp.n_states:
        raise ValueError("cost vector length does not match state count")
    p = induced_transition(mdp, actions).toarray()
    a = np.eye(mdp.n_states) - beta * p
    return _solve_linear(a, cost)


def value_iteration_discounted(
    mdp: TruncatedBeliefMDP, lam: float, tol: float = 1e-8, max_iters: int = 2_000_000
) -> PolicyAndValues:
    """Classic value iteration; stops when the update is <= tol*(1-beta)/(2*beta),
    which certifies a tol-accurate value function."""
    beta = mdp.discount
    if beta >= 1.0:
        raise ValueError("value_iteration_discounted requires discount < 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if beta == 0.0:
        qa, qp = _q_values(mdp, lam, np.zeros(mdp.n_states), 0.0)
        actions = _greedy(qa, qp)
        return PolicyAndValues(actions, np.minimum(qa, qp), 0.0, lam, DISCOUNTED)
    stop = tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(mdp.n_states)
    for _ in range(max_iters):
        qa, qp = _q_values(mdp, lam, v, beta)
        v_new = np.minimum(qa, qp)
        if np.max(np.abs(v_new - v)) <= stop:
            return PolicyAndValues(_greedy(qa, qp), v_new, 0.0, lam, DISCOUNTED)
        v = v_new
    raise SolverError("value iteration failed to converge (should be impossible)")


def policy_iteration_discounted(
    mdp: TruncatedBeliefMDP, lam: float, init=None, max_iters: int = 1000
) -> PolicyAndValues:
    """Howard policy iteration with exact linear evaluation.

    `init` is an optional starting policy (one action per state); defaults to
    all-active, the optimal policy at lam = 0.
    """
    n = mdp.n_states
    if init is None:
        actions = np.ones(n, dtype=np.int8)
    else:
        actions = np.asarray(init, dtype=np.int8)
        if actions.shape[0] != n:
            raise ValueError("init policy length does not match state count")
    beta = mdp.discount
    for _ in range(max_iters):
        cost = mdp.costs_passive + lam * actions
        v = policy_evaluation_discounted(mdp, actions, cost)
        qa, qp = _q_values(mdp, lam, v, beta)
        new_actions = _greedy(qa, qp)
        if np.array_equal(new_actions, actions):
            return PolicyAndValues(actions, v, 0.0, lam, DISCOUNTED)
        actions = new_actions
    raise NoConvergence("policy iteration cycled beyond max_iters")


def _recurrent_class_count(p: sp.csr_matrix) -> int:
    n_comp, labels = csgraph.connected_components(p > 0, directed=True, connection="strong")
    has_exit = np.zeros(n_comp, dtype=bool)
    coo = p.tocoo()
    for i, j in zip(coo.row, coo.col):
        if labels[i] != labels[j]:
            has_exit[labels[i]] = True
    return int(np.sum(~has_exit))


def average_policy_evaluation(mdp: TruncatedBeliefMDP, actions, cost_per_state):
    """Solve Z + g = cost + P_pi Z with Z anchored to 0 at the T_1^1 state.

    Returns (gain, differential values).  Raises MultichainPolicy when the
    induced chain has more than one recurrent class.
    """
    cost = np.asarray(cost_per_state, dtype=float)
    n = mdp.n_states
    if cost.shape[0] != n:
        raise ValueError("cost vector length does not match state count")
    p = induced_transition(mdp, actions)
    n_rec = _recurrent_class_count(p)
    if n_rec != 1:
        raise MultichainPolicy(f"induced chain has {n_rec} recurrent classes")
    anchor = _anchor_state(mdp)
    a = np.eye(n) - p.toarray()
    a = np.delete(a, anchor, axis=1)
    a = np.hstack([a, np.ones((n, 1))])
    x = _solve_linear(a, cost)
    z = np.insert(x[:-1], anchor, 0.0)
    g = float(x[-1])
    return g, z


def _vanishing_discount_fallback(mdp, lam, tol):
    """Degraded mode for multichain pathologies at rho = 1: solve discounted
    problems near beta = 1 and extrapolate (1 - beta) V linearly to beta = 1."""
    betas = (0.999, 0.9999)
    sols = []
    for b in betas:
        proxy = replace(mdp, discount=b)
        sols.append(policy_iteration_discounted(proxy, lam))
    anchor = _anchor_state(mdp)
    e1, e2 = (1.0 - b for b in betas)
    g1, g2 = (e * s.values[anchor] for e, s in zip((e1, e2), sols))
    gain = g2 - e2 * (g1 - g2) / (e1 - e2)
    z = sols[-1].values - sols[-1].values[anchor]
    return PolicyAndValues(sols[-1].actions, z, float(gain), lam, AVERAGE, degraded=True)


def solve_average(
    mdp: TruncatedBeliefMDP,
    lam: float,
    tol: float = 1e-9,
    max_sweeps: int = 200_000,
    init_z=None,
    allow_fallback: bool = True,
) -> PolicyAndValues:
    """Average-cost solve: damped relative value iteration with span stopping,
    then exact anchored evaluation of the greedy policy.

    The damping (aperiodicity transform, factor 1/2) leaves the optimal gain
    and policy unchanged and makes the sweep converge on unichain models.
    """
    if mdp.discount != 1.0:
        raise ValueError("solve_average expects an MDP built with discount = 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n = mdp.n_states
    anchor = _anchor_state(mdp)
    w = np.zeros(n) if init_z is None else np.asarray(init_z, dtype=float).copy()
    converged = False
    for _ in range(max_sweeps):
        qa, qp = _q_values(mdp, lam, w, 1.0)
        tw = np.minimum(qa, qp)
        d = tw - w
        if d.max() - d.min() <= tol:
            converged = True
            break
        w = 0.5 * (w + tw)
        w -= w[anchor]
    if not converged:
        if allow_fallback:
            return _vanishing_discount_fallback(mdp, lam, tol)
        raise NoConvergence(f"relative value iteration span not below {tol} in {max_sweeps} sweeps")

    actions = _greedy(qa, qp)
    try:
        gain, z = average_policy_evaluation(mdp, actions, mdp.costs_passive + lam * actions)
    except MultichainPolicy:
        if allow_fallback:
            return _vanishing_discount_fallback(mdp, lam, tol)
        raise
    return PolicyAndValues(actions, z, gain, lam, AVERAGE)


def active_passive_values(mdp: TruncatedBeliefMDP, values, state: int, lam: float):
    """Continuation values (a, r) of the active and passive action in one state.

    Discounted: a = lam + beta*rho*sum_k x_k V(T_k^1) + beta*(1-rho)*V(TX) and
    r = beta*V(TX); for an average-cost MDP the undiscounted analogs with Z.
    The greedy action is active iff a <= r.
    """
    values = np.asarray(values, dtype=float)
    beta = mdp.discount if mdp.discount < 1.0 else 1.0
    row_a = mdp.active_transitions.getrow(state)
    row_p = mdp.passive_transitions.getrow(state)
    a = lam + beta * (row_a @ values).item()
    r = beta * (row_p @ values).item()
    return a, r
