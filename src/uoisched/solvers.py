"""Exact solvers for truncated belief MDPs, one bandit or a batch at a time.

Discounted: value iteration, policy iteration (Howard), and linear policy
evaluation.  Average cost: Howard policy iteration with exact anchored
evaluations of (g, Z), started from the policy that is greedy with respect to
a warm start (the previous solve's Z, or zeros).  It stops at a certified
fixed point: when the policy is unichain and greedy with respect to its own
exact Z, then (g, Z) solves the average-cost optimality equation

    Z(s) + g = min(qa(s), qp(s))   (within ACTIVE_TIE_TOL)

so g is the optimal gain (Puterman 1994, sections 8.4 and 8.6).  The
evaluation is singular on a multichain policy, which at rho = 1 a PI iterate
can be (omega passive and absorbing).  A bandit with a multichain iterate, or
one still changing its policy after _PI_ROUNDS rounds, goes to damped
relative value iteration with span stopping from the untouched warm start
instead, then to an exact evaluation of its greedy policy; if that policy is
multichain too, or the span does not settle, the bandit takes the
vanishing-discount fallback.

Policy evaluation uses the structure of the belief MDP instead of a generic
linear solve.  Under a fixed policy a, walking each of the N age chains
backward from omega writes every value as an affine function of a few
unknowns: the N reset values u = V(T_k^1), V(omega) and (average cost) g,

    V(s) = c(s) - g + beta * [a(s) rho x(s).u + (1 - a(s) rho) V(next(s))],

so one (N+2) x (N+2) solve per bandit gives all values.  `BanditBatch`
stacks several bandits, padded to a common N and L, so a batch of policies
costs one backward pass over the ages and one batched solve.  Each policy
is evaluated under its charged cost and under the activation indicator;
the two together make its values affine in the charge, from which
`greedy_interval` reads the charges at which the policy stays optimal.

Tie-break convention used everywhere: the ACTIVE action is taken whenever
a(X) <= r(X) (up to ACTIVE_TIE_TOL), where a and r are the active/passive
continuation values.  Applying the same rule in every solver makes the
one-sided derivative choice at breakpoints consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .belief_mdp import TruncatedBeliefMDP
from .errors import MultichainPolicy, NoConvergence, SolverError

ACTIVE_TIE_TOL = 1e-9
_PI_ROUNDS = 50  # average-cost PI rounds before a still-changing bandit goes to RVI
# Distance from the tie threshold that `greedy_interval` keeps.  qa - qp
# extrapolated along a policy's affine values and qa - qp of a fresh
# evaluation at the new charge differed by at most 1.5e-14 over 1,920
# random M=4 cases (both criteria, shifts up to 0.3), so the margin leaves
# a factor of about 1e6 for rounding.  The discounted margin also stays
# above 2 * ACTIVE_TIE_TOL / (1 - beta): a policy certified greedy within
# the tie tolerance can lose at most ACTIVE_TIE_TOL / (1 - beta) in any
# state's decision, so where one policy is greedy by the margin policy
# iteration can certify no other.
GREEDY_MARGIN = 1e-7

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


@dataclass
class SolveCounts:
    """Work and health counters, added to by the batched solvers."""

    policy_evaluations: int = 0   # exact single-bandit evaluations (a batch of B counts B)
    fallbacks: int = 0            # vanishing-discount solves and activation-rate fallbacks
    pi_rounds: int = 0            # batched policy-iteration rounds, either criterion
    rvi_sweeps: int = 0           # batched relative value iteration sweeps


class BanditBatch:
    """Truncated belief MDPs with one discount, stacked for batched solves.

    Flat layout: the states of all bandits one after another; bandit b owns
    ids offsets[b] .. offsets[b+1]-1 in its own id order, so its omega is
    offsets[b].  Grid layout: an (L_max, B, N_max) array of chain cells;
    chain k of bandit b holds ages 1..L_b in rows L_max-L_b .. L_max-1, so
    every chain's last age sits in the last row and ages into omega.  Cells
    outside a bandit's chains read the padding slot (flat id n), whose
    action, cost and belief are zero.
    """

    def __init__(self, mdps, initial_states=None):
        self.mdps = list(mdps)
        betas = {mdp.discount for mdp in self.mdps}
        if len(betas) != 1:
            raise ValueError("a batch needs one discount factor")
        self.discount = betas.pop()
        B = len(self.mdps)
        sizes = [mdp.n_states for mdp in self.mdps]
        n_chain = [mdp.bandit.chain.n_states for mdp in self.mdps]
        lengths = np.array([mdp.truncation_L for mdp in self.mdps])
        self.n_max, self.l_max = max(n_chain), int(lengths.max())
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n = int(self.offsets[-1])
        starts = self.offsets[:-1]
        if initial_states is None:
            initial_states = np.zeros(B, dtype=np.int64)
        self.initial_ids = starts + np.asarray(initial_states, dtype=np.int64)

        self.bandit_of = np.repeat(np.arange(B), sizes)
        self.costs = np.concatenate([mdp.costs_passive for mdp in self.mdps])
        self.rho = np.repeat([mdp.bandit.success_prob for mdp in self.mdps], sizes)
        self.passive_next = np.concatenate([mdp.passive_next + s for mdp, s in zip(self.mdps, starts)])
        self.beliefs = np.zeros((n, self.n_max))
        self.reset_ids = np.empty((n, self.n_max), dtype=np.int64)
        grid = np.full((self.l_max, B, self.n_max), n, dtype=np.int64)
        for b, (mdp, s, N, L) in enumerate(zip(self.mdps, starts, n_chain, lengths)):
            self.beliefs[s : s + mdp.n_states, :N] = mdp.states
            self.reset_ids[s : s + mdp.n_states] = s  # zero-weight padding reads omega
            self.reset_ids[s : s + mdp.n_states, :N] = mdp.reset_states + s
            grid[self.l_max - L :, b, :N] = (s + 1 + np.arange(N * L)).reshape(N, L).T
        self.beliefs_t = np.ascontiguousarray(self.beliefs.T)
        self.reset_ids_t = np.ascontiguousarray(self.reset_ids.T)
        self.omega_ids = starts
        self.anchor_ids = self.reset_ids[starts, 0]  # the T_1^1 states
        self.anchor_of = self.anchor_ids[self.bandit_of]
        self.grid_ids = grid
        self.first_row = self.l_max - lengths         # row of age 1
        self.chain_pad = np.arange(self.n_max)[None, :] >= np.array(n_chain)[:, None]
        self.grid_beliefs = self.on_grid(self.beliefs)  # (L_max, B, N_max, N_max)
        self.grid_rho = np.array([mdp.bandit.success_prob for mdp in self.mdps])[None, :, None]
        cells = grid.ravel()
        self.cells = np.flatnonzero(cells < n)
        self.cell_ids = cells[self.cells]

    @property
    def size(self) -> int:
        return len(self.mdps)

    @property
    def n_states(self) -> int:
        return int(self.offsets[-1])

    def on_grid(self, per_state):
        """Gather a flat per-state array onto the chain grid (padding reads 0)."""
        per_state = np.asarray(per_state)
        pad = np.zeros((1,) + per_state.shape[1:], dtype=per_state.dtype)
        return np.concatenate([per_state, pad])[self.grid_ids]

    def unichain(self, actions) -> np.ndarray:
        """(B,) True where the policy's induced chain has one recurrent class.

        Every recurrent class holds a reset state or omega, because the rest
        of a chain only walks forward into them.  So the classes can be read
        off the (N+1)-node graph of the reset states and omega: reset k
        reaches reset j when an active state of chain k with x_j > 0 comes
        before the first active state at rho = 1 (which never ages on), and
        reaches omega when no such state cuts the chain.  The chain is
        unichain iff some node is reachable from every node.
        """
        act = self.on_grid(actions).astype(bool)
        cut = act & (self.grid_rho == 1.0)
        walks_on = np.logical_and.accumulate(~cut, axis=0)
        reached = np.concatenate([np.ones_like(walks_on[:1]), walks_on[:-1]])
        N = self.n_max
        edges = np.zeros((self.size, N + 1, N + 1), dtype=bool)
        edges[:, :N, :N] = ((reached & act)[..., None] & (self.grid_beliefs > 0.0)).any(axis=0)
        edges[:, :N, N] = walks_on[-1]
        omega_active = np.asarray(actions)[self.omega_ids].astype(bool)
        edges[:, N, :N] = omega_active[:, None] & (self.beliefs[self.omega_ids] > 0.0)
        reach = (edges | np.eye(N + 1, dtype=bool)).astype(np.int64)
        for _ in range(N.bit_length()):
            reach = np.minimum(reach @ reach, 1)
        return reach.all(axis=1).any(axis=1)

    def split(self, per_state, b):
        return per_state[self.offsets[b] : self.offsets[b + 1]]


@dataclass
class BatchSolution:
    """Optimal policies of every bandit of a batch at one service charge.

    Flat per-state arrays follow the batch layout.  `usage` is the dual
    derivative contribution of each bandit: the expected discounted number
    of activations from its initial state, or the long-run activation rate.
    `activations` holds the values of the same policies under the activation
    cost alone, so that under these policies the values at lam' are
    values + (lam' - lam) * activations; it is None when some bandit was
    not solved by policy iteration alone.
    """

    batch: BanditBatch
    lam: float
    criterion: str
    actions: np.ndarray
    values: np.ndarray
    gains: np.ndarray
    usage: np.ndarray
    degraded: np.ndarray
    activations: np.ndarray | None

    def policy(self, b: int) -> PolicyAndValues:
        return PolicyAndValues(
            self.batch.split(self.actions, b),
            self.batch.split(self.values, b),
            float(self.gains[b]),
            self.lam,
            self.criterion,
            degraded=bool(self.degraded[b]),
        )


def _q_values(batch: BanditBatch, lam, values, beta):
    v_next = values[batch.passive_next]
    # x.V(resets) summed in chain order, so zero padding leaves every bit as
    # in a batch of one
    v_resets = values[batch.reset_ids_t]
    v_reset = batch.beliefs_t[0] * v_resets[0]
    for k in range(1, batch.n_max):
        v_reset += batch.beliefs_t[k] * v_resets[k]
    qa = batch.costs + lam + beta * (batch.rho * v_reset + (1.0 - batch.rho) * v_next)
    qp = batch.costs + beta * v_next
    return qa, qp


def _greedy(qa, qp):
    return (qa <= qp + ACTIVE_TIE_TOL).astype(np.int8)


def greedy_interval(sol: BatchSolution):
    """[lo, hi]: the service charges at which the policies of `sol` stay
    greedy in their own values, or None.

    Under a fixed policy every value is affine in lam, so each state's
    qa - qp is too; a ratio test gives the charges at which no state comes
    within GREEDY_MARGIN of the ACTIVE_TIE_TOL threshold.  None when a
    state is already within the margin at sol.lam, or when `sol` has no
    activation values.
    """
    if sol.activations is None:
        return None
    batch, beta = sol.batch, sol.batch.discount
    gap = np.subtract(*_q_values(batch, sol.lam, sol.values, beta))
    slope = np.subtract(*_q_values(batch, 1.0, sol.activations, beta))  # the costs cancel
    margin = GREEDY_MARGIN if beta == 1.0 else max(GREEDY_MARGIN, 2.0 * ACTIVE_TIE_TOL / (1.0 - beta))
    # active states need gap + t * slope <= tol - margin, passive ones
    # gap + t * slope > tol + margin: both read t * rate <= room
    active = sol.actions == 1
    room = np.where(active, ACTIVE_TIE_TOL - margin - gap, gap - ACTIVE_TIE_TOL - margin)
    if (room <= 0.0).any():
        return None
    rate = np.where(active, slope, -slope)
    up, down = rate > 0.0, rate < 0.0
    hi = sol.lam + np.min(room[up] / rate[up]) if up.any() else np.inf
    lo = sol.lam + np.max(room[down] / rate[down]) if down.any() else -np.inf
    return float(lo), float(hi)


def _evaluate(batch: BanditBatch, actions, costs, average: bool, counts=None):
    """Values of one fixed policy per bandit under R cost vectors.

    `actions` is (n,) and `costs` (n, R) in the flat layout.  Returns values
    (n, R) (V, or Z anchored at T_1^1), gains (B, R) (zero when discounted)
    and the (B,) unichain mask.  An average-cost system that is not unichain
    is singular and is left unsolved: its values and gains mean nothing.
    """
    B, N, n = batch.size, batch.n_max, batch.n_states
    K, R = N + 2, costs.shape[1]
    beta = 1.0 if average else batch.discount
    actions = np.asarray(actions)
    unichain = batch.unichain(actions) if average else np.ones(B, dtype=bool)
    if counts is not None:
        counts.policy_evaluations += B

    # V(cell) = coef[..., :K] . (u, z_omega, g) + coef[..., K:], built backward
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

    # unknowns (u_1..u_N, z_omega, g): N chain closures, omega, and g = 0
    # (discounted) or the anchor u_1 = 0 (average)
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
    y[~unichain] = 0.0
    if average:
        y[:, 0] = 0.0  # the anchor, exactly

    grid_values = coef[..., :K] @ y + coef[..., K:]
    values = np.empty((n, R))
    values[batch.cell_ids] = grid_values.reshape(-1, R)[batch.cells]
    real = ~batch.chain_pad
    values[batch.reset_ids[o][real]] = y[:, :N][real]
    values[o] = y[:, N]
    return values, y[:, N + 1], unichain


def _cost_column(mdp, cost_per_state):
    cost = np.asarray(cost_per_state, dtype=float)
    if cost.shape[0] != mdp.n_states:
        raise ValueError("cost vector length does not match state count")
    return cost[:, None]


def policy_evaluation_discounted(mdp: TruncatedBeliefMDP, actions, cost_per_state) -> np.ndarray:
    """Solve (I - beta * P_pi) v = cost for a fixed policy."""
    if mdp.discount >= 1.0:
        raise ValueError("policy_evaluation_discounted requires discount < 1")
    cost = _cost_column(mdp, cost_per_state)
    values, _, _ = _evaluate(BanditBatch([mdp]), actions, cost, average=False)
    return values[:, 0]


def average_policy_evaluation(mdp: TruncatedBeliefMDP, actions, cost_per_state):
    """Solve Z + g = cost + P_pi Z with Z anchored to 0 at the T_1^1 state.

    Returns (gain, differential values).  Raises MultichainPolicy when the
    induced chain has more than one recurrent class.
    """
    cost = _cost_column(mdp, cost_per_state)
    values, gains, unichain = _evaluate(BanditBatch([mdp]), actions, cost, average=True)
    if not unichain[0]:
        raise MultichainPolicy("induced chain has more than one recurrent class")
    return float(gains[0, 0]), values[:, 0]


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
    batch = BanditBatch([mdp])
    if beta == 0.0:
        qa, qp = _q_values(batch, lam, np.zeros(mdp.n_states), 0.0)
        actions = _greedy(qa, qp)
        return PolicyAndValues(actions, np.minimum(qa, qp), 0.0, lam, DISCOUNTED)
    stop = tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(mdp.n_states)
    for _ in range(max_iters):
        qa, qp = _q_values(batch, lam, v, beta)
        v_new = np.minimum(qa, qp)
        if np.max(np.abs(v_new - v)) <= stop:
            return PolicyAndValues(_greedy(qa, qp), v_new, 0.0, lam, DISCOUNTED)
        v = v_new
    raise SolverError("value iteration failed to converge (should be impossible)")


def _evaluate_charged(batch: BanditBatch, lam, actions, average: bool, counts=None):
    """`_evaluate` under the costs (c + lam * a, a): values, then activations."""
    costs = np.stack([batch.costs + lam * actions, actions], axis=1)
    return _evaluate(batch, actions, costs, average, counts)


def _policy_iteration(batch: BanditBatch, lam, actions, average: bool, max_rounds: int, counts=None):
    """Howard policy iteration on every bandit of a batch at once, from the
    flat policy `actions`.

    Returns the last evaluated actions with their exact (values, gains) and
    the (B,) mask of certified bandits: unichain at every round (always, when
    discounted) and greedy with respect to their own values.  A bandit leaves
    PI at its first multichain iterate; the others go on until each is
    certified or max_rounds rounds have run.
    """
    starts = batch.offsets[:-1]
    live = np.ones(batch.size, dtype=bool)
    certified = np.zeros(batch.size, dtype=bool)
    values = gains = None
    for _ in range(max_rounds):
        if counts is not None:
            counts.pi_rounds += 1
        values, gains, unichain = _evaluate_charged(batch, lam, actions, average, counts)
        live &= unichain
        improved = _greedy(*_q_values(batch, lam, values[:, 0], batch.discount))
        certified = live & ~np.logical_or.reduceat(improved != actions, starts)
        if np.array_equal(certified, live):
            break
        actions = improved  # a certified bandit's actions are unchanged
    return actions, values, gains, certified


def policy_iteration_batch(
    batch: BanditBatch, lam: float, init=None, max_iters: int = 1000, counts=None
) -> BatchSolution:
    """Howard policy iteration on every bandit of a discounted batch at once,
    until every bandit's policy is stable.

    `init` is an optional flat starting policy; defaults to all-active, the
    optimal policy at lam = 0.  Each round evaluates the policy under its
    cost and under the activation indicator, so the derivative comes with it.
    """
    if batch.discount >= 1.0:
        raise ValueError("policy iteration requires discount < 1")
    n = batch.n_states
    if init is None:
        actions = np.ones(n, dtype=np.int8)
    else:
        actions = np.asarray(init, dtype=np.int8)
        if actions.shape[0] != n:
            raise ValueError("init policy length does not match state count")
    actions, values, _, certified = _policy_iteration(batch, lam, actions, False, max_iters, counts)
    if not certified.all():
        raise NoConvergence("policy iteration cycled beyond max_iters")
    B = batch.size
    return BatchSolution(
        batch, lam, DISCOUNTED, actions, values[:, 0], np.zeros(B),
        values[batch.initial_ids, 1], np.zeros(B, dtype=bool), values[:, 1],
    )


def policy_iteration_discounted(
    mdp: TruncatedBeliefMDP, lam: float, init=None, max_iters: int = 1000
) -> PolicyAndValues:
    """Howard policy iteration with exact linear evaluation.

    `init` is an optional starting policy (one action per state); defaults to
    all-active, the optimal policy at lam = 0.
    """
    return policy_iteration_batch(BanditBatch([mdp]), lam, init, max_iters).policy(0)


def _vanishing_discount_fallback(mdp, lam, tol, counts=None):
    """Degraded mode for multichain pathologies at rho = 1: solve discounted
    problems near beta = 1 and extrapolate (1 - beta) V linearly to beta = 1."""
    betas = (0.999, 0.9999)
    sols = []
    for b in betas:
        proxy = replace(mdp, discount=b)
        sols.append(policy_iteration_batch(BanditBatch([proxy]), lam, counts=counts).policy(0))
    anchor = int(mdp.reset_states[0])  # the T_1^1 state
    e1, e2 = (1.0 - b for b in betas)
    g1, g2 = (e * s.values[anchor] for e, s in zip((e1, e2), sols))
    gain = g2 - e2 * (g1 - g2) / (e1 - e2)
    z = sols[-1].values - sols[-1].values[anchor]
    return PolicyAndValues(sols[-1].actions, z, float(gain), lam, AVERAGE, degraded=True)


def _derivative_average_fallback(mdp, actions, initial_state, counts=None) -> float:
    # Multichain chain at rho = 1: approximate the activation rate by the
    # (1-beta)-scaled discounted activation value near beta = 1.
    beta = 0.9999
    proxy = BanditBatch([replace(mdp, discount=beta)])
    actions = np.asarray(actions)
    h, _, _ = _evaluate(proxy, actions, actions.astype(float)[:, None], average=False, counts=counts)
    return float((1.0 - beta) * h[initial_state, 0])


def _relative_value_iteration(batch: BanditBatch, lam, w, tol, max_sweeps, todo=None, counts=None):
    """Damped relative value iteration on the bandits of a batch marked in
    the (B,) mask `todo` (default all), in place on the flat iterate w.
    Returns the last (qa, qp) and the (B,) mask of bandits whose span is
    still above tol.

    A bandit whose span is below tol is frozen, so each stops at the sweep
    it would stop at alone.  The damping (aperiodicity transform, factor
    1/2) leaves the optimal gain and policy unchanged and makes the sweep
    converge on unichain models.
    """
    starts = batch.offsets[:-1]
    if todo is None:
        todo = np.ones(batch.size, dtype=bool)
    for _ in range(max_sweeps):
        if counts is not None:
            counts.rvi_sweeps += 1
        qa, qp = _q_values(batch, lam, w, 1.0)
        tw = np.minimum(qa, qp)
        d = tw - w
        sweeping = todo & (np.maximum.reduceat(d, starts) - np.minimum.reduceat(d, starts) > tol)
        if not sweeping.any():
            break
        w_next = 0.5 * (w + tw)
        w_next -= w_next[batch.anchor_of]
        np.copyto(w, w_next, where=sweeping[batch.bandit_of])
    return qa, qp, sweeping


def solve_average_batch(
    batch: BanditBatch,
    lam: float,
    tol: float = 1e-9,
    max_sweeps: int = 200_000,
    init_z=None,
    allow_fallback: bool = True,
    counts=None,
) -> BatchSolution:
    """Average-cost solve of every bandit of a batch: policy iteration from
    the policy greedy with respect to init_z (default zeros), certified at
    its fixed point.  A bandit PI cannot certify gets relative value
    iteration from init_z with span stopping (tol, max_sweeps), then exact
    anchored evaluation of its greedy policy.  All values come with their
    activation rates."""
    if batch.discount != 1.0:
        raise ValueError("solve_average expects an MDP built with discount = 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    w = np.zeros(batch.n_states) if init_z is None else np.asarray(init_z, dtype=float).copy()
    actions = _greedy(*_q_values(batch, lam, w, 1.0))
    actions, values, gains, certified = _policy_iteration(batch, lam, actions, True, _PI_ROUNDS, counts)
    sweeping = np.zeros(batch.size, dtype=bool)
    unichain = np.ones(batch.size, dtype=bool)
    if not certified.all():
        qa, qp, sweeping = _relative_value_iteration(batch, lam, w, tol, max_sweeps, ~certified, counts)
        actions = np.where(certified[batch.bandit_of], actions, _greedy(qa, qp))
        values, gains, unichain = _evaluate_charged(batch, lam, actions, True, counts)
    sol = BatchSolution(
        batch, lam, AVERAGE, actions, values[:, 0], gains[:, 0], gains[:, 1].copy(),
        np.zeros(batch.size, dtype=bool), values[:, 1] if certified.all() else None,
    )
    for b in np.flatnonzero(sweeping | ~unichain):
        if not allow_fallback:
            if sweeping[b]:
                raise NoConvergence(f"relative value iteration span not below {tol} in {max_sweeps} sweeps")
            raise MultichainPolicy("induced chain has more than one recurrent class")
        _fallback_into(sol, b, tol, counts)
    return sol


def _fallback_into(sol: BatchSolution, b: int, tol: float, counts) -> None:
    """Replace bandit b's solution by the vanishing-discount estimate."""
    batch = sol.batch
    mdp = batch.mdps[b]
    pol = _vanishing_discount_fallback(mdp, sol.lam, tol, counts)
    span = slice(batch.offsets[b], batch.offsets[b + 1])
    sol.actions[span], sol.values[span] = pol.actions, pol.values
    sol.gains[b], sol.degraded[b] = pol.gain, True
    rate_cost = pol.actions.astype(float)[:, None]
    _, rate, unichain = _evaluate(BanditBatch([mdp]), pol.actions, rate_cost, average=True, counts=counts)
    if unichain[0]:
        sol.usage[b] = rate[0, 0]
    else:
        initial_state = batch.initial_ids[b] - batch.offsets[b]
        sol.usage[b] = _derivative_average_fallback(mdp, pol.actions, initial_state, counts)
    if counts is not None:
        counts.fallbacks += 1 if unichain[0] else 2


def solve_average(
    mdp: TruncatedBeliefMDP,
    lam: float,
    tol: float = 1e-9,
    max_sweeps: int = 200_000,
    init_z=None,
    allow_fallback: bool = True,
) -> PolicyAndValues:
    """Average-cost solve of one bandit: policy iteration certified at its
    fixed point, with relative value iteration as the guard (see
    solve_average_batch)."""
    batch = BanditBatch([mdp])
    return solve_average_batch(batch, lam, tol, max_sweeps, init_z, allow_fallback).policy(0)


def active_passive_values(mdp: TruncatedBeliefMDP, values, state: int, lam: float):
    """Continuation values (a, r) of the active and passive action in one state.

    Discounted: a = lam + beta*rho*sum_k x_k V(T_k^1) + beta*(1-rho)*V(TX) and
    r = beta*V(TX); for an average-cost MDP the undiscounted analogs with Z.
    The greedy action is active iff a <= r.
    """
    values = np.asarray(values, dtype=float)
    beta = mdp.discount if mdp.discount < 1.0 else 1.0
    rho = mdp.bandit.success_prob
    v_next = values[mdp.passive_next[state]]
    v_reset = (mdp.states[state] * values[mdp.reset_states]).sum()
    a = lam + beta * (rho * v_reset + (1.0 - rho) * v_next)
    r = beta * v_next
    return float(a), float(r)
