"""Exact solvers for truncated belief MDPs, one bandit or a batch at a time.

`solve_batch` solves either criterion by Howard policy iteration with exact
evaluations, started from the policy that is greedy in warm-start values
(a nearby solve's V or Z, or zeros: all active at a zero charge).
Under the average criterion a unichain iterate is evaluated as (g, Z), with
Z anchored at T_1^1, and improved greedily in Z; at a unichain fixed point
(g, Z) solves the average-cost optimality equation

    Z(s) + g = min(qa(s), qp(s))   (within ACTIVE_TIE_TOL)

so g is the optimal gain (Puterman 1994, sections 8.4 and 8.6).  At rho = 1
an iterate can be multichain (omega passive and absorbing, next to a closed
set of reset states).  Such an iterate gets the multichain evaluation, a gain
and a bias per state, and Puterman's multichain improvement step (section
9.2): first on the expected next gain, then greedily in the bias among the
actions that tie on it.  Either way the solve ends when no bandit's policy
changes, and raises NoConvergence after _PI_ROUNDS rounds; the solve
reports the rounds it took (`BatchSolution.pi_rounds`).

Policy evaluation uses the structure of the belief MDP instead of a generic
linear solve.  Under a fixed policy a, walking each of the N age chains
backward from omega writes every value as an affine function of a few
unknowns: the N reset values u = V(T_k^1), V(omega) and (average cost) g,

    V(s) = c(s) - g + beta * [a(s) rho x(s).u + (1 - a(s) rho) V(next(s))],

so one (N+2) x (N+2) solve per bandit gives all values (a multichain
policy takes a 2(N+1) x 2(N+1) solve, with a gain per node).  `BanditBatch`
stacks several bandits, padded to a common N and L, so a batch of policies
costs one backward pass over the ages and one batched solve.  What no
policy changes is built once per batch: the map that gathers every state's
value from the grid cells and the solved node values in one `take`, and
the batched system less the rows a policy sets.  Each age of the backward
pass is two ufunc calls on one flat, contiguous row (the product into a
scratch row, then the sum): the floating-point operations of the broadcast
update coef[j] += carry[j] * coef[j + 1], in the same order.  Each policy
is evaluated under its charged cost and under the activation indicator;
the two together make its values affine in the charge, from which
`greedy_interval` reads the charges at which the policy stays optimal.

Tie-break conventions.  A policy read greedily off values (the start of
policy iteration, `greedy_interval`, the OR rule `index_policy.or_active`)
is ACTIVE wherever qa <= qp + ACTIVE_TIE_TOL.
Policy iteration itself keeps a state's action where |qa - qp| <=
ACTIVE_TIE_TOL and takes the strictly better one elsewhere: flipping tied
states can cycle among policies of equal gain, and keeping the incumbent
makes it terminate (Puterman 1994, sections 8.6 and 9.2).

The discount alone picks the criterion, in every layer: beta = 1 is average
cost (`criterion_of`).  A unit charge paid in every slot weighs 1/s,
s = `charge_scale(beta)`: its discounted sum 1/(1 - beta), or its rate 1 at
beta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief_mdp import TruncatedBeliefMDP
from .errors import NoConvergence, check_integer
from .markov import _closure

ACTIVE_TIE_TOL = 1e-9
_PI_ROUNDS = 50  # policy-iteration rounds, either criterion, before NoConvergence
# Distance from the tie threshold that `greedy_interval` keeps.  qa - qp
# extrapolated along a policy's affine values and qa - qp of a fresh
# evaluation at the new charge differed by at most 1.5e-14 over 1,920
# random M=4 cases (both criteria, shifts up to 0.3), so the margin leaves
# a factor of about 1e6 for rounding.  The margin also stays above
# 2 * ACTIVE_TIE_TOL / charge_scale(beta): a policy certified greedy within
# the tie tolerance can lose at most ACTIVE_TIE_TOL / (1 - beta) in any
# state's decision, so where one policy is greedy by the margin policy
# iteration can certify no other.
GREEDY_MARGIN = 1e-7

DISCOUNTED = "discounted"
AVERAGE = "average"


def criterion_of(beta: float) -> str:
    """The criterion a discount stands for: AVERAGE at beta = 1, else DISCOUNTED."""
    return AVERAGE if beta == 1.0 else DISCOUNTED


def charge_scale(beta: float) -> float:
    """s such that a unit charge paid in every slot weighs 1/s: 1 - beta, or
    1 at beta = 1 (average cost)."""
    return 1.0 - beta if beta < 1.0 else 1.0


def check_initial_states(mdps, initial_states=None) -> np.ndarray:
    """`initial_states` as an int64 array of one state id per MDP (None:
    every bandit at omega, id 0).  An id that is not an integer
    (`errors.check_integer`) raises TypeError; a count other than one per
    bandit, or an id outside a bandit's 0 .. n_states - 1, ValueError."""
    if initial_states is None:
        return np.zeros(len(mdps), dtype=np.int64)
    if np.ndim(initial_states) != 1 or len(initial_states) != len(mdps):
        raise ValueError(f"expected one initial state per bandit ({len(mdps)}), got {np.size(initial_states)}")
    states = [
        check_integer(s, f"initial state of bandit {mdp.bandit.label!r}") for mdp, s in zip(mdps, initial_states)
    ]
    for mdp, s in zip(mdps, states):
        if not 0 <= s < mdp.n_states:
            raise ValueError(f"initial state {s} of bandit {mdp.bandit.label!r} is outside 0 .. {mdp.n_states - 1}")
    return np.array(states, dtype=np.int64)


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
            raise ValueError("bandits must share one discount factor")
        self.discount = betas.pop()
        B = len(self.mdps)
        sizes = [mdp.n_states for mdp in self.mdps]
        n_chain = [mdp.bandit.chain.n_states for mdp in self.mdps]
        lengths = np.array([mdp.truncation_L for mdp in self.mdps])
        self.n_max, self.l_max = max(n_chain), int(lengths.max())
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n = int(self.offsets[-1])
        starts = self.offsets[:-1]
        self.initial_ids = starts + check_initial_states(self.mdps, initial_states)

        self.bandit_of = np.repeat(np.arange(B), sizes)
        self.costs = np.concatenate([mdp.costs_passive for mdp in self.mdps])
        self.rho = np.repeat([mdp.bandit.success_prob for mdp in self.mdps], sizes)
        self.stay = 1.0 - self.rho
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
        self.grid_ids = grid
        self.first_row = self.l_max - lengths         # row of age 1
        self.chain_pad = np.arange(self.n_max)[None, :] >= np.array(n_chain)[:, None]
        self.grid_beliefs = self.on_grid(self.beliefs)  # (L_max, B, N_max, N_max)
        self.grid_rho = np.array([mdp.bandit.success_prob for mdp in self.mdps])[None, :, None]
        self.cuts = bool((self.grid_rho == 1.0).any())  # an active state at rho = 1 ends its chain
        # What `_evaluate` needs that no policy changes.  Flat state -> its
        # row in [grid cells || (B, N_max + 1) node rows]: the reset states
        # and omega read their node, every other state its cell (padding
        # cells write the spare entry n, padding chains omega's, which the
        # last write sets).
        N, K = self.n_max, self.n_max + 2
        spread = np.empty(n + 1, dtype=np.int64)
        spread[grid] = np.arange(grid.size).reshape(grid.shape)
        nodes = grid.size + np.arange(B * (N + 1)).reshape(B, N + 1)
        spread[self.reset_ids[starts]] = nodes[:, :N]
        spread[starts] = nodes[:, N]
        self.spread_ids = spread[:n]
        self.first_cells = self.first_row * B + np.arange(B)  # age-1 rows of the (L_max * B, ...) grid
        # The (B, K, K) system in (u, z_omega, g), K = N_max + 2, less what
        # the policy sets: identity rows for the chains (a padding chain's
        # stays), omega's g column and the anchor u_1 = 0 (average), or
        # g = 0 (discounted).  Omega's row is read from `omega_rows`, under a
        # passive and an active omega: (2, B, N_max + 1).
        eye = np.eye(K)
        if self.discount == 1.0:
            eye[N, N + 1] = 1.0
            eye[N + 1] = eye[0]
        self.system = np.repeat(eye[None], B, axis=0)
        a_rho_o = np.array([[[0]], [[1]]]) * self.rho[starts, None]
        self.omega_rows = np.concatenate(
            [-self.discount * a_rho_o * self.beliefs[starts], 1.0 - self.discount * (1.0 - a_rho_o)], axis=-1
        )

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

    def reach(self, actions):
        """(B, N+1, N+1) reach matrix of the reset states and omega under the
        policy: entry (i, j) is True when node i reaches node j, the boolean
        closure (`markov._closure`) of the one-step edges read off below.

        Every recurrent class holds a reset state or omega, because the rest
        of a chain only walks forward into them.  So the classes can be read
        off the (N+1)-node graph of the reset states and omega: reset k
        reaches reset j when an active state of chain k with x_j > 0 comes
        before the first active state at rho = 1 (which never ages on), and
        reaches omega when no such state cuts the chain.
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
        return _closure(edges)

    def unichain(self, actions):
        """(B,) True where the policy's induced chain has one recurrent class,
        and the `reach` matrix it was read from, or None when no bandit has
        rho = 1.  The chain is unichain iff some node is reachable from every
        node.  Without rho = 1 nothing cuts a chain, so omega is reachable
        from every node and every policy is unichain.
        """
        if not self.cuts:
            return np.ones(self.size, dtype=bool), None
        reach = self.reach(actions)
        return reach.all(axis=1).any(axis=1), reach

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
    values + (lam' - lam) * activations; it is None when some bandit's
    final policy is multichain.  `pi_rounds` counts the policy-iteration
    rounds the solve took, each an exact evaluation of every bandit.
    """

    batch: BanditBatch
    lam: float
    actions: np.ndarray
    values: np.ndarray
    gains: np.ndarray
    usage: np.ndarray
    activations: np.ndarray | None
    pi_rounds: int

    @property
    def criterion(self) -> str:
        return criterion_of(self.batch.discount)

    @property
    def objective(self) -> np.ndarray:
        """Each bandit's criterion value at its initial state: V, or the gain g."""
        return self.gains if self.batch.discount == 1.0 else self.values[self.batch.initial_ids]

    def policy(self, b: int) -> PolicyAndValues:
        return PolicyAndValues(
            self.batch.split(self.actions, b),
            self.batch.split(self.values, b),
            float(self.gains[b]),
            self.lam,
        )


def _expected_next(batch: BanditBatch, values):
    """(P_active values, P_passive values) in every state, undiscounted."""
    v_next = values.take(batch.passive_next)
    # x.V(resets) summed in chain order, so zero padding leaves every bit as
    # in a batch of one
    v_resets = values.take(batch.reset_ids_t)
    v_reset = batch.beliefs_t[0] * v_resets[0]
    step = np.empty_like(v_reset)
    for k in range(1, batch.n_max):
        np.multiply(batch.beliefs_t[k], v_resets[k], step)
        np.add(v_reset, step, v_reset)
    # rho * x.V(resets) + (1 - rho) * V(next)
    np.multiply(batch.rho, v_reset, v_reset)
    np.multiply(batch.stay, v_next, step)
    return np.add(v_reset, step, v_reset), v_next


def _q_values(batch: BanditBatch, lam, values, beta):
    """(qa, qp): costs + lam + beta * P_active values, costs + beta * P_passive values."""
    p_active, p_passive = _expected_next(batch, values)
    qa = np.add(batch.costs, lam)
    qa += np.multiply(beta, p_active, p_active)
    return qa, np.add(batch.costs, np.multiply(beta, p_passive, p_passive), p_passive)


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
    margin = max(GREEDY_MARGIN, 2.0 * ACTIVE_TIE_TOL / charge_scale(beta))
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


def _spread(batch: BanditBatch, grid_values, nodes):
    """Flat (n, R) values from per-cell values (L_max, B, N_max, R) and
    per-node values (B, N_max+1, R): the reset states, then omega."""
    R = grid_values.shape[-1]
    return np.concatenate([grid_values.reshape(-1, R), nodes.reshape(-1, R)]).take(batch.spread_ids, axis=0)


def _backward(coef, carry):
    """coef[j] += carry[j, ..., None] * coef[j + 1] for j = L-2 .. 0, in
    place, as two ufunc calls per age on flat rows (carry repeated per
    column): the same products and sums as the broadcast update."""
    rows = list(coef.reshape(coef.shape[0], -1))
    scales = list(np.repeat(carry.reshape(coef.shape[0], -1), coef.shape[-1], axis=1))
    step = np.empty_like(rows[0])
    later = rows[-1]
    for row, scale in zip(rows[-2::-1], scales[-2::-1]):
        np.multiply(scale, later, step)
        np.add(row, step, row)
        later = row


def _evaluate(batch: BanditBatch, actions, costs):
    """Values of one fixed policy per bandit under R cost vectors, under the
    batch's criterion.

    `actions` is (n,) and `costs` (n, R) in the flat layout.  Returns values
    (n, R), gains (n, R) and the (B,) unichain mask.  Discounted: V, and
    zero gains.  Average cost, unichain: Z anchored at T_1^1 and the one
    gain g in every state.  Average cost, multichain: `_evaluate_multichain`.
    """
    B, N = batch.size, batch.n_max
    K, R = N + 2, costs.shape[1]
    beta = batch.discount
    average = beta == 1.0
    actions = np.asarray(actions)
    unichain, reach = batch.unichain(actions) if average else (np.ones(B, dtype=bool), None)

    # V(cell) = coef[..., :K] . (u, z_omega, g) + coef[..., K:], built
    # backward; each state's row is gathered onto the grid (padding reads
    # the zero row n)
    a_rho = np.zeros(batch.n_states + 1)
    np.multiply(actions, batch.rho, out=a_rho[:-1])
    carry = (beta * (1.0 - a_rho)).take(batch.grid_ids)
    per_state = np.zeros((batch.n_states + 1, K + R))
    np.multiply((beta * a_rho[:-1])[:, None], batch.beliefs, out=per_state[:-1, :N])
    if average:
        per_state[:, N + 1] = -1.0
    per_state[:-1, K:] = costs
    coef = per_state.take(batch.grid_ids, axis=0)
    coef[-1, ..., N] = carry[-1]
    _backward(coef, carry)

    # unknowns (u_1..u_N, z_omega, g): N chain closures, omega, and g = 0
    # (discounted) or the anchor u_1 = 0 (average)
    first = coef.reshape(-1, N, K + R).take(batch.first_cells, axis=0)
    o = batch.omega_ids
    a_mat = batch.system.copy()
    np.subtract(a_mat[:, :N], first[..., :K], out=a_mat[:, :N], where=~batch.chain_pad[..., None])
    a_mat[:, N, : N + 1] = np.where(actions[o, None] != 0, batch.omega_rows[1], batch.omega_rows[0])
    if not unichain.all():
        a_mat[~unichain] = np.eye(K)  # singular there; `_evaluate_multichain` takes over
    # a padding chain's cost coefficients stay +0.0: the right-hand side of
    # its identity row
    rhs = np.concatenate([first[..., K:], costs[o, None], np.zeros((B, 1, R))], axis=1)
    y = np.linalg.solve(a_mat, rhs)
    if average:
        y[:, 0] = 0.0  # the anchor, exactly

    grid = coef[..., :K] @ y
    grid += coef[..., K:]
    values = _spread(batch, grid, y[:, : N + 1])
    gains = y[:, N + 1].take(batch.bandit_of, axis=0)
    if not unichain.all():
        multi = ~unichain[batch.bandit_of, None]
        a_rho_o = actions[o] * batch.rho[o]
        h, g = _evaluate_multichain(batch, coef, carry, first, a_rho_o, costs, reach)
        values, gains = np.where(multi, h, values), np.where(multi, g, gains)
    return values, gains, unichain


def _evaluate_multichain(batch: BanditBatch, coef, carry, first, a_rho_o, costs, reach):
    """Bias h and per-state gain g of an average-cost policy with any number
    of recurrent classes (Puterman 1994, section 9.2), from the coefficients
    of `_evaluate`'s backward pass.

    Unknowns are a gain G and a bias H per node (the reset states, then
    omega).  Along a chain g = P g and h = c - g + P h give
    g(cell) = A.G and h(cell) = A.H - D.G + C, with A = coef[..., :N+1],
    C the cost part and D(cell) = A(cell) + carry * D(next cell).  The node
    rows G = P G and H + D.G = C + P H close the system; every recurrent
    class of the reach matrix takes H = 0 at its lowest node in place of
    that node's gain row, which the others imply.  Returns (h, g), (n, R).
    """
    N, R = batch.n_max, costs.shape[1]
    J = N + 1
    a = coef[..., :J]
    d = a.copy()
    _backward(d, carry)
    # padding chains are zero-cost chains into omega: transient, never read
    o = batch.omega_ids
    eye = np.eye(J)
    p_nodes = np.zeros((batch.size, J, J))
    p_nodes[:, :N] = first[..., :J]
    p_nodes[:, N, :N] = a_rho_o[:, None] * batch.beliefs[o]
    p_nodes[:, N, N] = 1.0 - a_rho_o
    d_nodes = np.zeros_like(p_nodes)
    d_nodes[:, :N] = d.reshape(-1, N, J).take(batch.first_cells, axis=0)
    d_nodes[:, N, N] = 1.0
    rhs = np.zeros((batch.size, 2 * J, R))
    rhs[:, J:N + J] = first[..., N + 2:]
    rhs[:, N + J] = costs[o]

    mutual = reach & reach.transpose(0, 2, 1)
    recurrent = (mutual == reach).all(axis=2)
    anchor = recurrent & ~np.tril(mutual, -1).any(axis=2)
    system = np.block([[eye - p_nodes, np.zeros_like(p_nodes)], [d_nodes, eye - p_nodes]])
    system[:, :J] = np.where(anchor[..., None], np.hstack([np.zeros((J, J)), eye]), system[:, :J])
    # Nodes that reach their class only slowly make the system ill
    # conditioned.  Over 5,000 random unichain policies forced through it,
    # one step of iterative refinement cut the largest bias error from
    # 1.7e-11 * s**2 to 4.8e-13 * s**2, s the largest |h|.
    x = np.linalg.solve(system, rhs)
    x += np.linalg.solve(system, rhs - system @ x)
    gain_nodes, bias_nodes = x[:, :J], x[:, J:]
    bias_nodes[anchor] = 0.0  # exactly
    h = _spread(batch, a @ bias_nodes - d @ gain_nodes + coef[..., N + 2:], bias_nodes)
    g = _spread(batch, a @ gain_nodes, gain_nodes)
    return h, g


def _cost_column(mdp, cost_per_state):
    cost = np.asarray(cost_per_state, dtype=float)
    if cost.shape[0] != mdp.n_states:
        raise ValueError("cost vector length does not match state count")
    return cost[:, None]


def _policy_column(mdp, actions):
    policy = np.asarray(actions)
    if policy.shape != (mdp.n_states,) or not ((policy == 0) | (policy == 1)).all():
        raise ValueError("actions must hold one 0 or 1 per state")
    return policy.astype(np.int8)


def _one_bandit(mdp: TruncatedBeliefMDP, average: bool, name: str) -> BanditBatch:
    """A batch of one `mdp`, which must be of the criterion `name` serves."""
    if (mdp.discount == 1.0) != average:
        raise ValueError(f"{name} requires discount {'= 1' if average else '< 1'}, got {mdp.discount}")
    return BanditBatch([mdp])


def policy_evaluation_discounted(mdp: TruncatedBeliefMDP, actions, cost_per_state) -> np.ndarray:
    """Solve (I - beta * P_pi) v = cost for a fixed policy."""
    batch = _one_bandit(mdp, False, "policy_evaluation_discounted")
    values, _, _ = _evaluate(batch, _policy_column(mdp, actions), _cost_column(mdp, cost_per_state))
    return values[:, 0]


def average_policy_evaluation(mdp: TruncatedBeliefMDP, actions, cost_per_state):
    """Gain and bias of a fixed policy under the average criterion.

    Returns (gains, values), one per state.  A unichain policy has one gain
    g in every state and values Z + g = cost + P_pi Z, anchored to 0 at the
    T_1^1 state; a multichain one has a gain per recurrent class and the
    bias of `_evaluate_multichain`.
    """
    batch = _one_bandit(mdp, True, "average_policy_evaluation")
    values, gains, _ = _evaluate(batch, _policy_column(mdp, actions), _cost_column(mdp, cost_per_state))
    return gains[:, 0], values[:, 0]


def _multichain_step(batch: BanditBatch, actions, improved, gains, multi):
    """Next policy of the bandits marked in the (B,) mask `multi` (Puterman
    1994, section 9.2): where some state's other action has a lower P_a g
    (by more than ACTIVE_TIE_TOL), switch those states; otherwise `improved`,
    the bias step, where both actions tie on P_a g.  Other bandits take
    `improved`."""
    excess = np.subtract(*_expected_next(batch, gains))  # P_active g - P_passive g
    switch = np.where(actions == 1, excess > ACTIVE_TIE_TOL, excess < -ACTIVE_TIE_TOL)
    gain_step = np.logical_or.reduceat(switch, batch.offsets[:-1])[batch.bandit_of]
    tied = np.abs(excess) <= ACTIVE_TIE_TOL
    step = np.where(gain_step, np.where(switch, 1 - actions, actions), np.where(tied, improved, actions))
    return np.where(multi[batch.bandit_of], step, improved).astype(np.int8)


def _policy_iteration(batch: BanditBatch, lam, actions):
    """Howard policy iteration on every bandit of a batch at once, from the
    flat policy `actions`, until no bandit's policy changes.

    Each round evaluates the policy under its charged cost c + lam * a and
    under the activation indicator a.  A bandit whose iterate is unichain
    (always, when discounted) takes the policy greedy in its values, each
    state keeping its action where qa and qp tie within ACTIVE_TIE_TOL; a
    multichain one takes `_multichain_step`.  Returns the last evaluated
    actions with their exact (values, gains), both (n, 2), the (B,)
    unichain mask and the number of rounds taken.  Raises NoConvergence when
    some bandit still changes its policy after _PI_ROUNDS rounds.
    """
    beta = batch.discount
    for rounds in range(1, _PI_ROUNDS + 1):
        costs = np.stack([batch.costs + lam * actions, actions], axis=1)
        values, gains, unichain = _evaluate(batch, actions, costs)
        qa, qp = _q_values(batch, lam, values[:, 0], beta)
        improved = np.where(np.abs(qa - qp) <= ACTIVE_TIE_TOL, actions, qa < qp).astype(np.int8)
        if not unichain.all():
            improved = _multichain_step(batch, actions, improved, gains[:, 0], ~unichain)
        changed = np.logical_or.reduceat(improved != actions, batch.offsets[:-1])
        if not changed.any():
            return actions, values, gains, unichain, rounds
        actions = improved
    raise NoConvergence(
        f"policy iteration still changing after {_PI_ROUNDS} rounds in bandits {np.flatnonzero(changed).tolist()}"
    )


def solve_batch(batch: BanditBatch, lam: float, warm=None) -> BatchSolution:
    """Optimal policies of every bandit of a batch at charge lam, under the
    batch's criterion (discount 1 is average cost).

    Policy iteration starts from the policy greedy in the flat values `warm`
    (a nearby solve's values, or zeros: all active at lam = 0) and runs to
    its fixed point.  Gains and usage are those of each initial state, and
    all values come with their activation values.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    w = np.zeros(batch.n_states) if warm is None else np.asarray(warm, dtype=float)
    if w.shape != (batch.n_states,):
        raise ValueError("warm values length does not match state count")
    actions = _greedy(*_q_values(batch, lam, w, batch.discount))
    actions, values, gains, unichain, rounds = _policy_iteration(batch, lam, actions)
    start = (gains if batch.discount == 1.0 else values)[batch.initial_ids]
    return BatchSolution(
        batch, lam, actions, values[:, 0],
        gains[batch.initial_ids, 0], start[:, 1], values[:, 1] if unichain.all() else None, rounds,
    )


def policy_iteration_discounted(mdp: TruncatedBeliefMDP, lam: float, warm=None) -> PolicyAndValues:
    """Discounted solve of one bandit, warm-started from values (see solve_batch)."""
    return solve_batch(_one_bandit(mdp, False, "policy_iteration_discounted"), lam, warm).policy(0)


def solve_average(mdp: TruncatedBeliefMDP, lam: float, warm=None) -> PolicyAndValues:
    """Average-cost solve of one bandit, warm-started from values (see solve_batch)."""
    return solve_batch(_one_bandit(mdp, True, "solve_average"), lam, warm).policy(0)

