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

A sweep runs on row blocks of axis 0, the states of bandit 0, one per
usable CPU: block 0 on the calling thread, the others on a thread pool that
lives for one solve (numpy releases the GIL inside each call).  A block owns
its rows of every joint-sized buffer and gathers from the whole iterate; an
H_T with 0 in T contracts axis 0 with the block's rows of rho_0 * states_0.
Every step is elementwise or a matmul whose output elements are the same
dot products in any block of at least two rows, and the min and max that
make the bracket below are exact, so every output is the same bit for bit
whatever the cut, and so whatever the CPU count.  A block holds at least
_PART_STATES joint states, since below that a thread costs more than it
saves: the sample configs' 7,469-state joints stay one block.

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

import contextlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .belief_mdp import TruncatedBeliefMDP, transition_matrices
from .errors import NoConvergence, StateSpaceTooLarge, check_integer
from .parallel import usable_cpus as _usable_cpus
from .solvers import charge_scale, check_initial_states

DEFAULT_CAP = 2_000_000

# joint states each row block needs (see `_row_blocks`).  On a 2-CPU host
# two blocks on two threads ran a sweep in 1.9x the time of one block at 22k
# joint states, 0.93x at 51k, 0.80x at 67k and 0.63x at 122k; 40k a block
# leaves a margin for a host whose second CPU is busy.
_PART_STATES = 40_000


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
    m = check_integer(m, "m")
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
    _sweeps: list[_FactoredSweep] = field(repr=False)  # one per row block
    _iterate: np.ndarray = field(repr=False)  # the last iterate, which `_sweeps` were applied to

    @property
    def blocks(self) -> int:
        """Row blocks the sweeps were cut into: a property of the host, not of the result."""
        return len(self._sweeps)

    @cached_property
    def policy(self) -> np.ndarray:
        """Argmin action index per joint state (lowest index on a tie), at
        the last iterate: one more sweep, made only when this is read."""
        return np.concatenate([sweep.policy(self._iterate) for sweep in self._sweeps])


def _contraction(x: np.ndarray, axis: int, mat: np.ndarray, out: np.ndarray):
    """(operands, result) of applying `mat` (n x N) along `axis` of x, where x
    has length N: `np.matmul(*operands[:2], out=operands[2])` fills the front
    of the flat buffer `out`, and `result` views it with length n there.
    x is contiguous, so every operand is a view and the call can be repeated."""
    n, N = mat.shape
    a, b = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    shape = x.shape[:axis] + (n,) + x.shape[axis + 1:]
    out = out[: a * n * b]
    if b == 1:
        operands = (x.reshape(a, N), mat.T, out.reshape(a, n))
    else:
        operands = (mat, x.reshape(a, N, b), out.reshape(a, n, b))
    return operands, out.reshape(shape)


class _FactoredSweep:
    """Bellman operator of a joint MDP at discount beta on the row block
    `rows` of axis 0 (all rows by default), with the block's buffers and its
    action groups, each of whose minimum is taken before its shared prefix."""

    def __init__(self, joint: JointMDP, beta: float, rows: slice = slice(None)):
        lo, hi, _ = rows.indices(joint.mdps[0].n_states)
        self.joint = joint
        self.beta = beta
        self.span = slice(lo * joint.strides[0], hi * joint.strides[0])  # the block's flat ids
        self.cost = joint.cost[self.span]
        scaled = [mdp.bandit.success_prob * mdp.states for mdp in joint.mdps]
        scaled[0] = scaled[0][lo:hi]
        # an H_T with 0 in T contracts axis 0 first, from every reset state of
        # bandit 0; any other gathers only the block's rows
        self.gathers = {t: ids if 0 in t else ids[lo:hi] for t, ids in joint.gathers.items()}
        n = len(self.cost)
        # every buffer is allocated once: fresh n_joint arrays in every sweep
        # cost about a third of its time
        self.read = {t: np.empty(ids.shape) for t, ids in self.gathers.items()}
        self.h = {t: np.empty(n) if t else x.ravel() for t, x in self.read.items()}  # H_{} is the gather itself
        self.acc = np.empty(n)
        self.tmp = np.empty(n)
        # the contractions of an H_T but the last write alternately to acc and
        # tmp, which are free while the H_T are gathered; a block's shapes are
        # fixed, so each matmul's operands are made once
        stages = (self.acc, self.tmp)
        self.contractions = {}
        for t, x in self.read.items():
            self.contractions[t] = []
            for j, i in enumerate(t):
                operands, x = _contraction(x, i, scaled[i], self.h[t] if j == len(t) - 1 else stages[j % 2])
                self.contractions[t].append(operands)
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
        for t, ids in self.gathers.items():
            np.take(v, ids, out=self.read[t], mode="clip")  # ids are in range: no bounds check
            for first, second, out in self.contractions[t]:
                np.matmul(first, second, out=out)

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
        """min over actions of cost + beta * P_a v on the block's rows, written
        into `out`, which has the block's length.

        The minimum is taken over P_a v and cost and beta are applied once:
        rounding is monotone, so every bit equals the minimum of the q-values."""
        self._gather(v)
        (prefix, lasts), *others = self.groups
        best = self._group(prefix, lasts, out)
        for prefix, lasts in others:
            best = np.minimum(best, self._group(prefix, lasts, self.acc), out=out)
        np.multiply(best, self.beta, out=out)
        out += self.cost
        return out

    def difference(self, v: np.ndarray, tv: np.ndarray, d: np.ndarray) -> tuple[float, float]:
        """Write the block's rows of Tv into tv and of Tv - v into d, all three
        joint-sized, and return the least and the greatest of the latter."""
        d = np.subtract(self.values(v, tv[self.span]), v[self.span], out=d[self.span])
        return d.min(), d.max()

    def policy(self, v: np.ndarray) -> np.ndarray:
        """Index of the action with the least q-value at each state of the
        block; the lowest index wins ties, as in argmin."""
        self._gather(v)
        best = np.full(len(self.cost), np.inf)
        q = np.empty(len(self.cost))
        policy = np.zeros(len(self.cost), dtype=np.intp)
        for a in range(len(self.joint.actions)):
            np.multiply(self._product(a, self.acc), self.beta, out=q)
            q += self.cost
            better = q < best
            policy[better] = a
            np.minimum(best, q, out=best)
        return policy


def _row_blocks(joint: JointMDP) -> list[slice]:
    """Cut axis 0 into one block per usable CPU, of at least _PART_STATES
    joint states and two rows each (a one-row matmul goes to gemv, whose
    rounding may differ); a single block where that leaves fewer than two."""
    n0 = joint.mdps[0].n_states
    k = min(joint.n_joint // _PART_STATES, n0 // 2)
    k = min(k, _usable_cpus()) if k > 1 else 1  # most joints are small: no system call for them
    cuts = [b * n0 // k for b in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _value_iteration(mdps, m: int, tol: float, cap: int, max_iters: int):
    """(joint, blocks, v, Tv, low, high, sweeps) at the first bracket [low,
    high] at most tol wide: MacQueen's on V* - Tv (v <- Tv), or at beta = 1
    Odoni's on g*, by damped relative value iteration (v <- (v + Tv)/2,
    v[0] = 0).  `blocks` holds one `_FactoredSweep` per row block: block 0
    runs on this thread and the others on a pool that ends with the solve."""
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    betas = {mdp.discount for mdp in mdps}
    if len(betas) != 1:
        raise ValueError("bandits must share one discount factor")
    beta = betas.pop()
    joint = build_joint(mdps, m, cap)
    first, *others = blocks = [_FactoredSweep(joint, beta, rows) for rows in _row_blocks(joint)]
    v, tv, d = np.zeros(joint.n_joint), np.empty(joint.n_joint), np.empty(joint.n_joint)
    scale = beta / charge_scale(beta)
    with ThreadPoolExecutor(len(others)) if others else contextlib.nullcontext() as pool:
        for sweeps in range(1, max_iters + 1):
            futures = [pool.submit(block.difference, v, tv, d) for block in others]
            low, high = first.difference(v, tv, d)
            for future in futures:  # min and max are exact, so the bracket does not depend on the cut
                ends = future.result()
                low, high = min(low, ends[0]), max(high, ends[1])
            low, high = scale * low, scale * high
            if high - low <= tol:
                return joint, blocks, v, tv, low, high, sweeps
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
    tol/2: the midpoint of the first MacQueen bracket at most tol wide.
    `value` is read at `initial_states` (default every bandit at omega),
    one state id per MDP, checked before the solve."""
    if not all(mdp.discount < 1.0 for mdp in mdps):
        raise ValueError("discounted oracle requires discount < 1")
    initial_states = check_initial_states(mdps, initial_states)
    joint, blocks, v, tv, low, high, sweeps = _value_iteration(mdps, m, tol, cap, max_iters)
    start = joint.joint_index(initial_states)
    bounds = (float(tv[start] + low), float(tv[start] + high))
    tv += 0.5 * (low + high)
    return OracleResult(
        value=float(tv[start]), values=tv, gain=0.0, joint=joint, sweeps=sweeps, bounds=bounds, _sweeps=blocks,
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
    joint, blocks, w, _, low, high, sweeps = _value_iteration(mdps, m, tol, cap, max_iters)
    gain = 0.5 * (high + low)
    return OracleResult(
        value=float(gain), values=w - w[0], gain=float(gain), joint=joint, sweeps=sweeps,
        bounds=(float(low), float(high)), _sweeps=blocks, _iterate=w,
    )
