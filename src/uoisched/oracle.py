"""Exact solution of the joint RMAB on the product of truncated state spaces.

Feasible for small M only: the joint state space is the mixed-radix product
of the per-bandit truncated spaces (bandit 0 most significant, so a value
vector is an (n_1, ..., n_M) tensor in C order) and the action set enumerates
the m-subsets of bandits in lexicographic order.

A Bellman sweep never forms a joint transition matrix.  Under action S every
bandit outside S moves to its passive successor; a bandit i in S does too
with probability 1 - rho_i and otherwise jumps to its reset state T_k^1 with
probability rho_i * x_k.  Hence

    P_S v = sum over T subset of S of  prod_{i in S \\ T} (1 - rho_i) * H_T,

where H_T reads v at the reset states along the axes in T and at the passive
successors along every other axis (one flat gather), then contracts each
axis i in T with the bandit's scaled belief matrix rho_i * states_i
(n_i x N_i).  H_T depends on T alone, so one sweep computes each H_T once and
every action that contains T shares it.  The last term of every action is
H_S itself, of weight 1, so actions whose other terms agree share that
prefix p (summed in the same order) and the minimum over them needs one add:
rounding is monotone, so min over a of fl(p + H_S_a) = fl(p + min over a of
H_S_a), bit for bit.  With equal rho and m = 1 every action falls in one
group.  The per-action Kronecker products of the per-bandit matrices
(`JointMDP.transitions`) are built only on request, as a reference.

Both solvers stop on bounds, not on the size of the last step.  The Bellman
operator T is monotone (v <= w implies Tv <= Tw) and shifts constants by its
discount (T(v + c) = Tv + beta c), so with d = Tv - v every further step
T^(k+1) v - T^k v lies in beta^k [min d, max d] and

    Tv + beta/(1-beta) min d  <=  V*  <=  Tv + beta/(1-beta) max d

at every state (MacQueen 1966; Porteus 1971).  Value iteration stops once
this bracket is at most tol wide and returns its midpoint, so every value is
within tol/2 of V*.  The common drift of the iterate, which decays only at
rate beta, does not widen the bracket, so it is not waited out.  For the
average criterion the same argument with beta = 1 gives Odoni's bracket
min d <= g* <= max d on the optimal gain; relative value iteration stops once
its span is at most tol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .belief_mdp import TruncatedBeliefMDP, transition_matrices
from .errors import NoConvergence, StateSpaceTooLarge
from .solvers import charge_scale

DEFAULT_CAP = 2_000_000


@dataclass
class JointMDP:
    mdps: list[TruncatedBeliefMDP]
    m: int
    actions: list[tuple[int, ...]]        # m-subsets, lexicographic
    cost: np.ndarray                      # (n_joint,) summed entropies
    strides: list[int]
    gathers: dict[tuple[int, ...], np.ndarray]          # T -> flat ids of v that H_T reads
    terms: list[list[tuple[tuple[int, ...], float]]]    # per action: (T, prod of 1 - rho over S \ T), nonzero only

    @property
    def n_joint(self) -> int:
        return self.cost.shape[0]

    def joint_index(self, per_bandit_states) -> int:
        return int(sum(s * w for s, w in zip(per_bandit_states, self.strides)))

    @cached_property
    def transitions(self) -> list:
        """Joint CSR transition matrix of each action, as a sparse Kronecker
        product of the per-bandit active/passive matrices; built on first use."""
        import scipy.sparse as sp

        per_bandit = [transition_matrices(mdp) for mdp in self.mdps]
        transitions = []
        for subset in self.actions:
            mat = None
            for i, (passive, active) in enumerate(per_bandit):
                factor = active if i in subset else passive
                mat = factor if mat is None else sp.kron(mat, factor, format="csr")
            transitions.append(mat.tocsr())
        return transitions


def _action_terms(mdps, subset) -> list[tuple[tuple[int, ...], float]]:
    """(T, prod_{i in S \\ T} (1 - rho_i)) for every T subset of S whose weight is nonzero."""
    terms = []
    for size in range(len(subset) + 1):
        for t in itertools.combinations(subset, size):
            weight = math.prod((1.0 - mdps[i].bandit.success_prob for i in subset if i not in t), start=1.0)
            if weight != 0.0:
                terms.append((t, weight))
    return terms


def _gather_ids(mdps, strides, t) -> np.ndarray:
    """Flat joint ids read by H_T: reset states on the axes in T, passive successors elsewhere."""
    ids = np.zeros((), dtype=np.intp)
    for i, (mdp, stride) in enumerate(zip(mdps, strides)):
        axis = mdp.reset_states if i in t else mdp.passive_next
        ids = np.add.outer(ids, axis.astype(np.intp) * stride)
    return ids


def build_joint(mdps: list[TruncatedBeliefMDP], m: int, cap: int = DEFAULT_CAP) -> JointMDP:
    M = len(mdps)
    if not 1 <= m < M:
        raise ValueError(f"need 1 <= m < M, got m={m}, M={M}")
    counts = [mdp.n_states for mdp in mdps]
    n_joint = math.prod(counts)
    n_actions = math.comb(M, m)
    if n_joint * n_actions > cap:
        raise StateSpaceTooLarge(
            f"joint problem has {n_joint} states x {n_actions} actions "
            f"= {n_joint * n_actions} state-action pairs (cap {cap})",
            size=n_joint * n_actions,
        )
    strides = [math.prod(counts[i + 1:]) for i in range(M)]

    cost = np.zeros(1)
    for mdp in mdps:
        cost = np.add.outer(cost, mdp.costs_passive).ravel()

    actions = list(itertools.combinations(range(M), m))
    terms = [_action_terms(mdps, subset) for subset in actions]
    needed = sorted({t for action in terms for t, _ in action}, key=lambda t: (len(t), t))
    return JointMDP(
        mdps=list(mdps),
        m=m,
        actions=actions,
        cost=cost,
        strides=strides,
        gathers={t: _gather_ids(mdps, strides, t) for t in needed},
        terms=terms,
    )


@dataclass
class OracleResult:
    value: float                 # discounted value (or gain) at the initial state
    values: np.ndarray           # per-joint-state V (or differential values)
    gain: float                  # average cost (average criterion only)
    joint: JointMDP
    sweeps: int                  # Bellman sweeps of the value iteration
    bounds: tuple[float, float]  # certified bracket on `value`
    _sweep: _FactoredSweep = field(repr=False)
    _iterate: np.ndarray = field(repr=False)  # the last iterate, which `_sweep` was applied to

    @cached_property
    def policy(self) -> np.ndarray:
        """Argmin action index per joint state (lowest index on a tie), at
        the last iterate: one more sweep, made only when this is read."""
        return self._sweep.policy(self._iterate)


def _contract(x: np.ndarray, axis: int, mat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply `mat` (n x N) along `axis` of x, where x has length N: the result
    has length n there and fills the front of the flat buffer `out`."""
    n, N = mat.shape
    a, b = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    shape = x.shape[:axis] + (n,) + x.shape[axis + 1:]
    out = out[: a * n * b]
    if b == 1:
        np.matmul(x.reshape(a, N), mat.T, out=out.reshape(a, n))
    else:
        np.matmul(mat, x.reshape(a, N, b), out=out.reshape(a, n, b))
    return out.reshape(shape)


class _FactoredSweep:
    """Bellman operator of a joint MDP at discount beta, with its buffers and
    its action groups, each of whose minimum is taken before its shared prefix."""

    def __init__(self, joint: JointMDP, beta: float):
        n = joint.n_joint
        self.joint = joint
        self.beta = beta
        self.scaled = [mdp.bandit.success_prob * mdp.states for mdp in joint.mdps]
        # every buffer is allocated once: fresh n_joint arrays in every sweep
        # cost about a third of its time
        self.read = {t: np.empty(ids.shape) for t, ids in joint.gathers.items()}
        self.h = {t: np.empty(n) if t else x.ravel() for t, x in self.read.items()}  # H_{} is the gather itself
        self.acc = np.empty(n)
        self.tmp = np.empty(n)
        # the contractions of an H_T but the last write alternately to acc and
        # tmp, which are free while the H_T are gathered
        self.stages = (self.acc, self.tmp)
        # actions whose terms agree but for the last, H_S, form a group (see the
        # module docstring).  A prefix that two actions S != S' share can hold
        # only H of S minus the one bandit outside S', so in a group of several
        # it is at most one term: `_group` may hold the least H_S in `tmp` while
        # it weights that term into `out`.  Without a prefix the least H_S is
        # the group's value, so it goes to `out`, which later groups leave alone.
        groups = {}
        for terms in joint.terms:
            groups.setdefault(tuple(terms[:-1]), []).append(self.h[terms[-1][0]])
        self.groups = [([(self.h[t], w) for t, w in prefix], lasts) for prefix, lasts in groups.items()]

    def _gather(self, v: np.ndarray) -> None:
        """Fill H_T for every T the actions use."""
        for t, ids in self.joint.gathers.items():
            x = self.read[t]
            np.take(v, ids, out=x, mode="clip")  # ids are in range: no bounds check
            for j, i in enumerate(t):
                x = _contract(x, i, self.scaled[i], self.h[t] if j == len(t) - 1 else self.stages[j % 2])

    def _sum(self, operands: list[tuple[np.ndarray, float]], out: np.ndarray) -> np.ndarray:
        """The sum of x * w over the operands (x, w), left to right: into `out`,
        or x itself when that is all of it."""
        total = None
        for x, w in operands:
            if w != 1.0:
                x = np.multiply(x, w, out=out if total is None else self.tmp)
            total = x if total is None else np.add(total, x, out=out)
        return total

    def _product(self, a: int, out: np.ndarray) -> np.ndarray:
        """P_a v from the gathered terms: into `out`, or H_T itself when that is all of it."""
        return self._sum([(self.h[t], w) for t, w in self.joint.terms[a]], out)

    def _group(self, prefix: list, lasts: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """min over a group of its P_a v: the prefix plus the least last term,
        into `out` or a last term itself."""
        least, *others = lasts
        for x in others:
            least = np.minimum(least, x, out=self.tmp if prefix else out)
        return self._sum(prefix + [(least, 1.0)], out)

    def values(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """min over actions of cost + beta * P_a v, written into `out`.

        The minimum is taken over P_a v and cost and beta are applied once:
        rounding is monotone, so every bit equals the minimum of the q-values."""
        self._gather(v)
        (prefix, lasts), *others = self.groups
        best = self._group(prefix, lasts, out)
        for prefix, lasts in others:
            best = np.minimum(best, self._group(prefix, lasts, self.acc), out=out)
        np.multiply(best, self.beta, out=out)
        out += self.joint.cost
        return out

    def policy(self, v: np.ndarray) -> np.ndarray:
        """Index of the action with the least q-value at each state; the lowest
        index wins ties, as in argmin."""
        self._gather(v)
        best = np.full(self.joint.n_joint, np.inf)
        q = np.empty(self.joint.n_joint)
        policy = np.zeros(self.joint.n_joint, dtype=np.intp)
        for a in range(len(self.joint.actions)):
            np.multiply(self._product(a, self.acc), self.beta, out=q)
            q += self.joint.cost
            better = q < best
            policy[better] = a
            np.minimum(best, q, out=best)
        return policy


def _value_iteration(mdps, m: int, tol: float, cap: int, max_iters: int):
    """(joint, sweep, v, Tv, low, high, sweeps) at the first bracket [low, high]
    at most tol wide: MacQueen's on V* - Tv (v <- Tv), or at beta = 1 Odoni's
    on g*, by damped relative value iteration (v <- (v + Tv)/2, v[0] = 0)."""
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    betas = {mdp.discount for mdp in mdps}
    if len(betas) != 1:
        raise ValueError("bandits must share one discount factor")
    beta = betas.pop()
    joint = build_joint(mdps, m, cap)
    sweep = _FactoredSweep(joint, beta)
    v, tv, d = np.zeros(joint.n_joint), np.empty(joint.n_joint), np.empty(joint.n_joint)
    scale = beta / charge_scale(beta)
    for sweeps in range(1, max_iters + 1):
        sweep.values(v, out=tv)
        np.subtract(tv, v, out=d)
        low, high = scale * d.min(), scale * d.max()
        if high - low <= tol:
            return joint, sweep, v, tv, low, high, sweeps
        if beta < 1.0:
            v, tv = tv, v
        else:
            v += tv
            v *= 0.5
            v -= v[0]
    what, width = ("relative value iteration", "span") if beta == 1.0 else ("value iteration", "bracket width")
    raise NoConvergence(
        f"joint {what} did not converge in {max_iters} sweeps: last {width} {high - low:.3g} > tol {tol:g}"
    )


def joint_solve_discounted(
    mdps: list[TruncatedBeliefMDP],
    m: int,
    tol: float = 1e-8,
    cap: int = DEFAULT_CAP,
    initial_states=None,
    max_iters: int = 2_000_000,
) -> OracleResult:
    """Optimal discounted values of the joint truncated problem, each within
    tol/2: the midpoint of the first MacQueen bracket at most tol wide."""
    if not all(mdp.discount < 1.0 for mdp in mdps):
        raise ValueError("discounted oracle requires discount < 1")
    joint, sweep, v, tv, low, high, sweeps = _value_iteration(mdps, m, tol, cap, max_iters)
    start = joint.joint_index(initial_states or [0] * len(mdps))
    bounds = (float(tv[start] + low), float(tv[start] + high))
    tv += 0.5 * (low + high)
    return OracleResult(
        value=float(tv[start]), values=tv, gain=0.0, joint=joint, sweeps=sweeps, bounds=bounds, _sweep=sweep,
        _iterate=v,
    )


def joint_solve_average(
    mdps: list[TruncatedBeliefMDP],
    m: int,
    tol: float = 1e-6,
    cap: int = DEFAULT_CAP,
    max_iters: int = 500_000,
) -> OracleResult:
    """Optimal average cost of the joint truncated problem by damped relative
    value iteration with span-seminorm stopping."""
    if not all(mdp.discount == 1.0 for mdp in mdps):
        raise ValueError("average oracle requires discount = 1")
    joint, sweep, w, _, low, high, sweeps = _value_iteration(mdps, m, tol, cap, max_iters)
    gain = 0.5 * (high + low)
    return OracleResult(
        value=float(gain), values=w - w[0], gain=float(gain), joint=joint, sweeps=sweeps,
        bounds=(float(low), float(high)), _sweep=sweep, _iterate=w,
    )
