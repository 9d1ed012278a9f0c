"""Slot-level Monte-Carlo simulation of the M-source, m-channel system.

Beliefs are tracked symbolically as truncated-state ids in the layout of
`belief_mdp`, so the simulator follows the truncated dynamics: ages beyond L
are pinned to the equilibrium belief.  Every bandit's tables are concatenated
into flat arrays, and each slot advances all bandits of all runs with a
fixed number of vectorized numpy operations.  Each run draws from its own
Philox stream (`rng.RunStreams`), a block of slots at a time, so no
random-number call is left inside the slot loop.  Every slot consumes one
success draw and one transition draw per bandit regardless of the policy's
selections, so different policies under the same seed see identical source
paths (common random numbers).

A block is simulated in two walks, and each walk is one step function
driven by `_walk`; a step advances one slot, or a slice of slots at once.
The true states depend on the draws alone, so they are walked first
(`_true_state_step`: three numpy calls per slot, plus an add per state
beyond two in the largest chain).  The belief walk (`_belief_step`) does
only what depends on the previous slot's selection.  For gain_index and
myopic the state ids are ranks in the top-m order (highest score, then
lowest label), so a slot selects its m smallest belief ids: six calls
select, mask the successes, gather the passive successors and the reset
states, and merge them.  Round robin keeps the grid ids and a fixed
selection: three calls.  Apart from the partition at m > 1, no call in a
slot goes through a Python-level numpy wrapper, and none casts an input.
Costs and traces are gathered per block.

At 100-500 lanes a slot costs about numpy's per-call floor, so both walks
speculate along time: a block's K segments are walked in lockstep from
guessed starts by the same steps, K times the lanes per call, then
repaired in rounds.  Round r re-walks segments r .. K - 1 in lockstep,
each from the end its predecessor reached, so segment r starts true.  A
step is deterministic given the block's draws, so the walk stops exactly,
bit for bit, at the first step whose states all meet the stored walk,
which is soon: a success and aging into omega both forget where a belief
started, and a shared draw sends most true states of a chain to one
successor.  K is the number of segments of at least _SEGMENT_SLOTS slots
whose lanes fit in _SEGMENT_LANES, or 1 below _MIN_SEGMENTS (500-lane or
short calls), where each walk calls its step once per slot, with that
slot's (M, runs) operands.  Two segments in a row that start true and do
not meet their stored walks within their rounds mean slowly mixing
sources: the block is finished slot by slot, and so is the rest of that
walk in the call.
A walk takes at most as many steps as the block has slots.
`SimResult.walk_steps` counts the steps of both walks.

Runs draw from their own streams, so a call cuts its runs into contiguous
ranges, one per usable CPU (`parallel.max_parts`), once each range holds at
least _PART_BSLOTS bandit-slots: the first range runs in this process and
each other one in a forked child (`parallel.in_parts`).  Each range sizes
its blocks and speculates over its own runs, and the per-run totals, the
service counts (integers) and the walk steps are joined in run order, so
every output is the same bit for bit whatever the cut; only
`SimResult.walk_steps` and `SimResult.parts` follow the host's CPUs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .belief_mdp import BanditSpec, TruncatedBeliefMDP, build_truncated, nearest_state
from .index_policy import gain_index_tables, or_active
from .lagrange import gradient_search, make_problem
from .parallel import in_parts, max_parts
from .rng import RunStreams
from .solvers import charge_scale, criterion_of

RESULT_SCHEMA_VERSION = 1

POLICIES = ("gain_index", "myopic", "round_robin")

# uniforms drawn per block over all runs (2 MB); a block holds at least one
# slot and at most the horizon
_BLOCK_DOUBLES = 1 << 18

# a walk is cut into K time segments walked in lockstep (`_walk`): K * lanes
# stays within _SEGMENT_LANES, each segment holds at least _SEGMENT_SLOTS
# slots, and below _MIN_SEGMENTS segments the walk goes slot by slot
_SEGMENT_LANES = 2048
_SEGMENT_SLOTS = 64
_MIN_SEGMENTS = 7

# bandit-slots (M * runs * horizon) each part of the runs needs (see
# `simulate`).  On a 2-CPU host two parts ran a call in 1.03-1.59x the time
# of one at 10^5 bandit-slots, 0.92-1.17x at 2 * 10^5, 0.68-0.79x at 5 * 10^5
# and 0.57-0.78x at 10^6 (the average sample config and a 10-source
# instance, gain_index and round robin); 5 * 10^5 a part leaves a margin for
# a host whose second CPU is busy.
_PART_BSLOTS = 500_000


@dataclass
class RMABInstance:
    bandits: list[BanditSpec]
    m: int
    criterion: str
    discount: float                    # beta < 1 for discounted, 1.0 for average
    initial_beliefs: list | None = None
    seed: int = 0

    def __post_init__(self):
        M = len(self.bandits)
        if not 1 <= self.m < M:
            raise ValueError(f"need 1 <= m < M, got m={self.m}, M={M}")
        labels = [b.label for b in self.bandits]
        if len(set(labels)) != M:
            raise ValueError("bandit labels must be unique")
        if not 0.0 <= self.discount <= 1.0 or self.criterion != criterion_of(self.discount):
            raise ValueError(f"a {self.criterion!r} instance cannot have discount {self.discount} (average cost is 1)")
        if self.initial_beliefs is not None and len(self.initial_beliefs) != M:
            raise ValueError("one initial belief per bandit required")

    @property
    def n_bandits(self) -> int:
        return len(self.bandits)


@dataclass
class SimResult:
    policy: str
    criterion: str
    m: int
    n_bandits: int
    runs: int
    horizon: int
    burn_in: int
    seed: int
    discount: float
    per_run: np.ndarray
    mean: float
    stderr: float
    activation_freq: np.ndarray
    or_mask_trace: np.ndarray | None = field(default=None)   # run 0, (T, M) OR decisions
    selection_trace: np.ndarray | None = field(default=None)  # run 0, (T, m) selected bandits
    walk_steps: int = 0  # slot steps of both walks (lockstep rounds and slot by slot); not in the JSON
    parts: int = 1  # processes the runs were cut across; not in the JSON

    def to_json_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "policy": self.policy,
            "criterion": self.criterion,
            "m": self.m,
            "n_bandits": self.n_bandits,
            "runs": self.runs,
            "horizon": self.horizon,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "discount": self.discount,
            "mean": self.mean,
            "stderr": self.stderr,
            "per_run": [float(v) for v in self.per_run],
            "activation_freq": [float(v) for v in self.activation_freq],
        }


def discounted_horizon(beta: float, total_entropy_bound: float) -> int:
    """Smallest T with beta^T * bound / (1 - beta) < 1e-6 (estimator bias cap)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    if beta == 0.0:
        return 1
    t = math.log(1e-6 * (1.0 - beta) / total_entropy_bound) / math.log(beta)
    return max(1, int(math.ceil(t)))


def _check_tables(instance: RMABInstance, tables, mdps) -> None:
    lam = tables[0].lambda_star
    for bandit, table, mdp in zip(instance.bandits, tables, mdps):
        if table.bandit_label != bandit.label:
            raise ValueError(f"table label {table.bandit_label!r} does not match bandit {bandit.label!r}")
        if table.criterion != instance.criterion:
            raise ValueError(f"table criterion {table.criterion!r} does not match instance")
        if abs(table.lambda_star - lam) > 1e-9:
            raise ValueError("index tables were computed at different multipliers")
        L = mdp.truncation_L
        if table.truncation_L != L:
            raise ValueError(f"index table for {bandit.label!r} has truncation depth {table.truncation_L}, not {L}")
        if (
            table.beliefs.shape != mdp.states.shape
            or table.indices.shape != (mdp.n_states,)
            or np.max(np.abs(table.beliefs - mdp.states)) > 1e-12
        ):
            raise ValueError(f"index table for {bandit.label!r} was not computed for this bandit's chain")


def _padded_cdf(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Cumulative sums of each row without its last entry, padded with 1.0 to
    `width` - 1 entries and stored column-major, (width - 1, total rows).

    Uniforms are below 1, so counting the entries a draw exceeds gives the
    inverse-cdf index capped at N_i - 1, the same as the full cumulative row.
    """
    cdf = np.ones((width - 1, sum(r.shape[0] for r in rows)))
    col = 0
    for r in rows:
        np.cumsum(r[:, :-1], axis=1, out=cdf[: r.shape[1] - 1, col : col + r.shape[0]].T)
        col += r.shape[0]
    return cdf


def _true_state_step(u, transition_cdf, chain_offset, k: int):
    """`step(t, x, out)` for `_walk`: into out, the true states that follow
    x, the (M, runs) global ids of slot t or the (lanes, M, runs) ids of a
    slice t of up to k slots, given the transition draws u[t].  A state's
    next id is its chain offset (chain_offset, (M, runs)) plus the number of
    its padded cdf entries the draw exceeds.  The comparison writes 0/1 as
    int64, so every add is int64 + int64: a bool operand would make each
    add cast it, which costs more."""
    width = transition_cdf.shape[0]
    cdf_buf = np.empty(width * k * chain_offset.size)
    above_buf = np.empty(cdf_buf.shape, dtype=np.int64)
    views = {}  # made once per operand shape: (M, runs) for a slot, (lanes, M, runs) for a slice

    def buffers(shape):
        # contiguous (width,) + shape views, so that `take` writes in place
        size = width * math.prod(shape)
        above = above_buf[:size].reshape((width,) + shape)
        views[shape] = cdf_buf[:size].reshape(above.shape), above, above[0], list(above[1:])
        return views[shape]

    def step(t, x, out):
        cdf, above, first, further = views.get(x.shape) or buffers(x.shape)
        transition_cdf.take(x, axis=1, out=cdf, mode="clip")
        np.greater(u[t], cdf, out=above, casting="unsafe")
        np.add(chain_offset, first, out=out)
        for row in further:
            out += row

    return step


def _belief_step(X, act, reset, passive_next, m, chosen, k: int):
    """`step(t, b, out)` for `_walk`: into out, the beliefs that follow b,
    those of slot t or of a slice t of up to k slots.  A bandit moves to its
    reset state where act[t] holds, else to its passive successor.  With m,
    act[t] (the successes) is first restricted to the m bandits of each run
    holding the smallest belief ids, which are recorded in chosen[t];
    without it, act already holds a fixed selection.  act is read, never
    overwritten, and each step gathers its reset states from the true
    states X[t]."""
    _, M, runs = X.shape
    hit_buf = np.empty(k * M * runs, dtype=bool)
    kth_buf = np.empty(k * runs, dtype=np.int64)
    reset_buf = np.empty(k * M * runs, dtype=np.int64)
    views = {}

    def buffers(shape):
        size = math.prod(shape)
        kth = kth_buf[: size // M].reshape(shape[:-2] + (1, runs))
        views[shape] = hit_buf[:size].reshape(shape), kth, reset_buf[:size].reshape(shape)
        return views[shape]

    def step(t, b, out):
        hit, kth, resets = views.get(b.shape) or buffers(b.shape)
        a = act[t]
        if m is not None:
            if m == 1:
                np.minimum.reduce(b, axis=-2, out=kth, keepdims=True)
                c = np.less_equal(b, kth, out=chosen[t])
            else:
                c = np.less_equal(b, np.partition(b, m - 1, axis=-2)[..., m - 1 : m, :], out=chosen[t])
            a = np.logical_and(a, c, out=hit)
        passive_next.take(b, out=out, mode="clip")
        np.putmask(out, a, reset.take(X[t], out=resets, mode="clip"))

    return step


def _walk(states: np.ndarray, n: int, k: int, step) -> tuple[int, bool]:
    """Fill states[1 : n + 1] with the walk that follows states[0]; return
    the steps taken and whether speculation paid.

    `step(t, now, out)` writes to out the states that follow `now`, those of
    slot t (an int) or of the slots of a slice t.  With k = 1 the walk goes
    slot by slot, `step(j, states[j], states[j + 1])` for each slot j.
    Otherwise the slots are cut into k segments of ceil(n / k) slots (the
    last may be shorter) and walked in rounds.  Round 0 walks every segment
    in lockstep from the guess states[0]; round r >= 1 walks segments
    r .. k - 1 in lockstep from the ends their predecessors reached in the
    round before, so each round's lane 0 walks the next seg slots.  By
    induction segments 0 .. r - 1 are true when round r starts, so
    segment r starts true.  A step depends only on its state and its
    slot's data, so a lane that meets its stored walk goes on exactly as
    the stored one: the walk stops, exact, at the first step of a round
    whose states all equal the stored ones.  A lane 0 that meets its
    stored walk leaves the next segment's stored walk true, so lane 0 of
    round r >= 2 misses its own only after lane 0 of round r - 1 missed
    too: the sources mix slower than a segment.  The rest of the block
    then goes slot by slot from lane 0's true end, and the False return
    makes the caller walk the rest of the call slot by slot.  A miss in
    round 1 alone is no such sign, as its stored walk started from the
    guess.  Either way the walk takes at most n steps."""
    if k == 1:
        for j in range(n):
            step(j, states[j], states[j + 1])
        return n, True
    seg = -(-n // k)
    after = states[1 : n + 1]
    now, new = np.empty((2, -(-n // seg)) + states.shape[1:], dtype=states.dtype)
    now[:] = states[0]
    for j in range(n):
        t = slice(j, n, seg)
        lanes = len(range(j, n, seg))
        if j and j % seg == 0:
            now[:lanes] = states[t]  # round j // seg starts from the stored ends
        step(t, now[:lanes], new[:lanes])
        if j >= seg:
            same = new[:lanes] == after[t]
            if same.all():
                return j + 1, True
        after[t] = new[:lanes]
        if j >= 2 * seg and j % seg == seg - 1 and not same[0].all():
            break
        now, new = new, now
    for i in range(j + 1, n):
        step(i, states[i], states[i + 1])
    return n, False


def simulate(
    instance: RMABInstance,
    policy: str,
    horizon: int,
    runs: int,
    seed: int | None = None,
    tables=None,
    truncation_L=None,
    burn_in: int | None = None,
    record_y: bool = False,
) -> SimResult:
    """Simulate a scheduling policy and return per-run objective estimates.

    `policy` is one of POLICIES.  `tables` are required for gain_index and
    must match each bandit's chain, and `truncation_L` (int or per-bandit
    list) too when both are given; without tables `truncation_L` sets the
    belief truncation.  Cost H(X_i(t)) accrues at the start of slot t with
    weight beta^(t-1) (discounted) or enters the post-burn-in time average.
    `record_y` (which needs tables) logs the first run's OR decisions
    (`index_policy.or_active`) per slot and the selected bandits.  Identical seeds
    yield identical traces.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    M = instance.n_bandits
    m = instance.m
    seed = instance.seed if seed is None else int(seed)
    beta = instance.discount
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")

    if tables is not None and len(tables) != M:
        raise ValueError(f"expected {M} tables, got {len(tables)}")
    if tables is None and policy == "gain_index":
        raise ValueError("this policy requires one index table per bandit")
    if tables is None and record_y:
        raise ValueError("record_y requires index tables: the OR decisions are read from them")
    if truncation_L is None:
        if tables is None:
            raise ValueError("truncation_L is required when no index tables are given")
        l_per_bandit = [t.truncation_L for t in tables]
    elif np.isscalar(truncation_L):
        l_per_bandit = [int(truncation_L)] * M
    else:
        l_per_bandit = [int(l) for l in truncation_L]
    if len(l_per_bandit) != M:
        raise ValueError(f"expected {M} truncation depths, got {len(l_per_bandit)}")
    mdps = [build_truncated(b, L, beta) for b, L in zip(instance.bandits, l_per_bandit)]
    if tables is not None:
        _check_tables(instance, tables, mdps)

    if beta == 1.0:
        burn = int(0.1 * horizon) if burn_in is None else int(burn_in)
        if burn >= horizon:
            raise ValueError("burn_in must leave at least one slot")
    else:
        burn = 0

    # one flat table per quantity: bandit i's truncated state s is global id
    # offset[i] + s, and its source state k is global id chain_base[i] + k
    # (repeated over a part's runs, as the true-state step adds it)
    n_chain = np.array([b.chain.n_states for b in instance.bandits])
    n_states = np.array([mdp.n_states for mdp in mdps])
    offset = np.cumsum(n_states) - n_states
    chain_base = np.cumsum(n_chain) - n_chain
    entropy = np.concatenate([mdp.costs_passive for mdp in mdps])
    passive_next = np.concatenate([mdp.passive_next + off for mdp, off in zip(mdps, offset)])
    reset = np.concatenate([mdp.reset_states + off for mdp, off in zip(mdps, offset)])
    index = np.concatenate([t.indices for t in tables]) if tables is not None else None
    start = np.zeros(M, dtype=np.int64)
    if instance.initial_beliefs is not None:
        for i, chi in enumerate(instance.initial_beliefs):
            if chi is not None:
                start[i] = nearest_state(mdps[i].states, chi)
    start_cdf = _padded_cdf([mdp.states[s : s + 1] for mdp, s in zip(mdps, start)], n_chain.max())
    transition_cdf = _padded_cdf([b.chain.transition.T for b in instance.bandits], n_chain.max())
    belief = offset + start
    rho = np.array([b.success_prob for b in instance.bandits])[:, None]
    lam_star = tables[0].lambda_star if tables is not None else None
    if policy == "round_robin":
        # slot t serves bandits (t-1)m .. tm-1 mod M, a cycle of M/gcd(M, m)
        cycle = M // math.gcd(M, m)
        rr_masks = np.zeros((cycle, M, 1), dtype=bool)
        for c in range(cycle):
            rr_masks[c, (np.arange(m) + c * m) % M] = True
    else:
        # relabel the global states by their rank in the top-m order: highest
        # score first, then lowest bandit label.  States of different bandits
        # never tie, so a slot selects the m bandits with the smallest ids.
        label_rank = np.argsort(np.argsort(np.array([b.label for b in instance.bandits])))
        order = np.lexsort((np.repeat(label_rank, n_states), -(index if policy == "gain_index" else entropy)))
        rank = np.argsort(order)
        entropy, passive_next, reset, belief = entropy[order], rank[passive_next[order]], rank[reset], rank[belief]
        index = index[order] if index is not None else None

    def run_range(lo: int, hi: int):
        """Runs lo .. hi - 1: their totals, the services of each bandit summed
        over them, the walk steps, and run 0's traces if lo is 0 and
        record_y.  Blocks are sized from these runs alone."""
        runs = hi - lo
        record = record_y and lo == 0
        chain_offset = np.repeat(chain_base[:, None], runs, axis=1)
        served = np.zeros((M, runs), dtype=np.int64)
        beta_pow = 1.0
        or_mask_trace = np.zeros((horizon, M), dtype=bool) if record else None
        selection_trace = np.zeros((horizon, m), dtype=np.int64) if record else None
        # blocks of near-equal length, so that the last one is long enough to
        # speculate too
        block = max(1, min(horizon, _BLOCK_DOUBLES // (2 * M * runs)))
        block = -(-horizon // -(-horizon // block))

        # X[j] and B[j] hold the (M, runs) true-state and belief ids of slot
        # first + j of a block, and row 0 carries the last slot of the block
        # before.  The fixed draw order of every run is one initial draw per
        # bandit, then per slot success draws for bandits 0..M-1 followed by
        # transition draws for bandits 0..M-1.
        streams = RunStreams(seed, runs, first=lo)
        X = np.empty((block + 1, M, runs), dtype=np.int64)
        X[0] = chain_offset + (streams.draw(M).T > start_cdf[:, :, None]).sum(axis=0)
        # row 0 carries the totals of the blocks before, rows 1..n a block's
        # weighted slot costs; the cumsum adds them in slot order
        totals = np.zeros((block + 1, runs))
        walk_steps = 0
        # a walk whose speculation did not pay goes slot by slot for the rest of the call
        speculate_true = speculate_beliefs = True
        for first in range(0, horizon, block):
            n = min(block, horizon - first)
            k = min(_SEGMENT_LANES // (M * runs), n // _SEGMENT_SLOTS)
            k = k if k >= _MIN_SEGMENTS else 1
            # (n, 2M, runs) view of the block's draws: slot j's success draws are
            # u[j, :M], its transition draws u[j, M:].  The true states depend on
            # the draws alone, so they are walked first, and the buffers of the
            # beliefs are made only once the first block's draws are freed.
            u = streams.draw(n * 2 * M).reshape(runs, n, 2 * M).transpose(1, 2, 0)
            # the successes in C order, so each slot reads its mask contiguously
            # (`u[:, :M] < rho` would keep the draws' transposed order)
            act = np.less(u[:, :M], rho, out=np.empty((n, M, runs), dtype=bool))
            k_true = k if speculate_true else 1
            steps, paid = _walk(X, n, k_true, _true_state_step(u[:, M:], transition_cdf, chain_offset, k_true))
            speculate_true &= paid
            walk_steps += steps
            del u
            if first == 0:
                B = np.empty_like(X)
                B[0] = belief[:, None]
            if policy == "round_robin":
                chosen = rr_masks[(first + np.arange(n)) % cycle]
                act &= chosen
                select = None
            else:
                chosen = np.empty((n, M, runs), dtype=bool)
                select = m
            k_beliefs = k if speculate_beliefs else 1
            steps, paid = _walk(B, n, k_beliefs, _belief_step(X, act, reset, passive_next, select, chosen, k_beliefs))
            speculate_beliefs &= paid
            walk_steps += steps

            if record:
                or_mask_trace[first : first + n] = or_active(index.take(B[:n, :, 0]), beta, lam_star)
                selection_trace[first : first + n] = np.nonzero(chosen[:, :, 0])[1].reshape(n, m)
            served += chosen.sum(axis=0)
            # each slot's cost adds bandits 0..M-1 in order and the totals add
            # slots in order, as a slot-by-slot loop would (cumsum is sequential
            # where sum may add pairwise)
            cost = entropy.take(B[:n, 0], out=totals[1 : n + 1])
            for i in range(1, M):
                cost += entropy.take(B[:n, i])
            X[0], B[0] = X[n], B[n]
            # slot weights beta^t, or (beta = 1) 0 before the burn-in and 1 after
            weights = np.multiply.accumulate(np.r_[beta_pow, np.full(n - 1, beta)])
            beta_pow = weights[-1] * beta
            weights[: max(0, burn - first)] = 0.0
            cost *= weights[:, None]
            np.cumsum(totals[: n + 1], axis=0, out=totals[: n + 1])
            totals[0] = totals[n]
        return totals[0].copy(), served.sum(axis=1), walk_steps, (or_mask_trace, selection_trace)

    # each part simulates a contiguous range of runs, part 0 in this process
    # and the others in forked children; runs read their own streams and the
    # results are joined in run order, so the cut changes no output
    n_parts = min(runs, M * runs * horizon // _PART_BSLOTS)
    n_parts = min(n_parts, max_parts()) if n_parts > 1 else 1
    cuts = [(p * runs // n_parts, (p + 1) * runs // n_parts) for p in range(n_parts)]
    parts = in_parts(run_range, cuts)
    per_run = np.concatenate([part[0] for part in parts])
    served = sum(part[1] for part in parts)
    or_mask_trace, selection_trace = parts[0][3]
    if beta == 1.0:
        per_run /= horizon - burn
        cap = sum(np.log2(b.chain.n_states) for b in instance.bandits)
        if per_run.min() < -1e-12 or per_run.max() > cap + 1e-9:
            raise AssertionError("time-average UoI left its feasible range")

    mean = float(per_run.mean())
    stderr = float(per_run.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return SimResult(
        policy=policy,
        criterion=instance.criterion,
        m=m,
        n_bandits=M,
        runs=runs,
        horizon=horizon,
        burn_in=burn,
        seed=seed,
        discount=beta,
        per_run=per_run,
        mean=mean,
        stderr=stderr,
        activation_freq=served / (runs * horizon),
        or_mask_trace=or_mask_trace,
        selection_trace=selection_trace,
        walk_steps=sum(part[2] for part in parts),
        parts=n_parts,
    )


@dataclass
class SweepRow:
    n_bandits: int
    m: int
    class_counts: list[int]
    rounding_residues: list[float]
    per_bandit_cost: float
    per_bandit_stderr: float
    per_bandit_bound: float
    gap: float


@dataclass
class AsymptoticSweep:
    alpha: float
    proportions: list[float]
    criterion: str
    discount: float
    lambda_star: float
    m_list: list[int]
    rows: list[SweepRow]

    def to_json_dict(self) -> dict:
        return {"schema_version": RESULT_SCHEMA_VERSION, **asdict(self)}


def _class_counts(proportions, m_int, alpha) -> tuple[int, list[int], list[float]]:
    m_req = alpha * m_int
    if abs(m_req - round(m_req)) > 1e-9:
        raise ValueError(f"M*alpha = {m_req} is not integral for M = {m_int}")
    counts = [int(round(q * m_int)) for q in proportions]
    residues = [q * m_int - c for q, c in zip(proportions, counts)]
    if sum(counts) != m_int:
        raise ValueError(f"class proportions do not fill M = {m_int}: counts {counts}")
    return int(round(m_req)), counts, residues


def sweep_plans(labels: list[str], proportions: list[float], alpha: float, m_list) -> dict:
    """Check a population sweep's plan and return, for each population size
    M in ascending order, (channels M * alpha, class counts, rounding
    residues).  The sizes must be unique and at least 2, M * alpha integral,
    and every class present at every M."""
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise ValueError("class proportions must sum to 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    m_list = sorted(int(v) for v in m_list)
    for name, values in (("class labels", labels), ("population sizes", m_list)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be unique, got {values}")
    if not m_list or m_list[0] < 2:
        raise ValueError(f"population sizes must be at least 2, got {m_list}")
    plans = {M: _class_counts(proportions, M, alpha) for M in m_list}
    for M, (_, counts, _) in plans.items():
        for label, c in zip(labels, counts):
            if c == 0:
                raise ValueError(f"class {label!r} has no bandit at M = {M}; each class needs one at every M")
    return plans


def asymptotic_sweep(
    classes: list[tuple[TruncatedBeliefMDP, float]],
    alpha: float,
    m_list: list[int],
    runs: int,
    seed: int,
    horizon: int | None = None,
    burn_in: int | None = None,
    gradient_opts: dict | None = None,
) -> AsymptoticSweep:
    """Scale the population at fixed class mix and channel ratio alpha = m/M.

    The class MDPs share one discount, which sets the criterion.  For each M
    the gain-index policy is simulated from the equilibrium belief (class duplicates share one index
    table) and compared against the per-bandit relaxed lower bound f(lam*)/M,
    which depends only on the class mix.  Reports the gap series.
    """
    proportions = [q for _, q in classes]
    plans = sweep_plans([mdp.bandit.label for mdp, _ in classes], proportions, alpha, m_list)
    m_list = list(plans)

    # f(lam)/M bounds the per-bandit cost from below at any lam >= 0, and
    # only the set of its maximizers is mix-invariant: the lambda* the search
    # returns moves with M within the search's tolerance.  So the sweep solves
    # once, on the smallest population, and bounds every M at that lambda*
    # (ROADMAP item 9 reads the exact optimum off the search's bracket).
    m0 = m_list[0]
    m_chan0, counts0, _ = plans[m0]
    mdps0 = [mdp for (mdp, _), c in zip(classes, counts0) for _ in range(c)]
    beta = mdps0[0].discount
    problem = make_problem(mdps0, m_chan0, criterion_of(beta), **(gradient_opts or {}))
    trace = gradient_search(problem)
    lam_star = trace.lambda_star
    per_bandit = gain_index_tables(problem, trace)
    tables = [per_bandit[sum(counts0[:k])] for k in range(len(classes))]

    # each class's V(omega) (discounted) or g (average) at lambda*
    class_values = trace.solution.objective.tolist()

    if horizon is None:
        total_bh = max(m_list) * max(np.log2(mdp.bandit.chain.n_states) for mdp, _ in classes)
        horizon = discounted_horizon(beta, total_bh) if beta < 1.0 else 10_000

    rows = []
    for M in m_list:
        m_chan, counts, residues = plans[M]
        bandits, rep_tables = [], []
        for k, c in enumerate(counts):
            base = classes[k][0].bandit
            for j in range(c):
                label = f"{base.label}-{j + 1}"
                bandits.append(BanditSpec(base.chain, base.success_prob, label))
                rep_tables.append(replace(tables[k], bandit_label=label))
        instance = RMABInstance(bandits, m_chan, problem.criterion, beta, seed=seed)
        res = simulate(instance, "gain_index", horizon, runs, seed=seed, tables=rep_tables, burn_in=burn_in)
        bound = (sum(c * v for c, v in zip(counts, class_values)) - m_chan * lam_star / charge_scale(beta)) / M
        cost = res.mean / M
        rows.append(
            SweepRow(
                n_bandits=M,
                m=m_chan,
                class_counts=counts,
                rounding_residues=residues,
                per_bandit_cost=cost,
                per_bandit_stderr=res.stderr / M,
                per_bandit_bound=float(bound),
                gap=float(cost - bound),
            )
        )
    return AsymptoticSweep(
        alpha=alpha,
        proportions=proportions,
        criterion=problem.criterion,
        discount=beta,
        lambda_star=float(lam_star),
        m_list=m_list,
        rows=rows,
    )
