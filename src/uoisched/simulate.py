"""Slot-level Monte-Carlo simulation of the M-source, m-channel system.

Beliefs are tracked symbolically as truncated-state ids in the layout of
`belief_mdp`, so the simulator follows the truncated dynamics: ages beyond L
are pinned to the equilibrium belief.  Every bandit's tables are concatenated
into flat arrays, and each slot advances all bandits of all runs with a
fixed number of vectorized numpy operations.  The truncated MDPs are
built on the bandits' chain objects, which keep their aged beliefs, so a
call on chains a caller has already built MDPs on propagates no belief.
Each run draws from its own Philox stream (`rng.RunStreams`, every run's
key derived in one vectorized pass), a block of slots at a time, so no
random-number call is left inside the slot loop.  Every slot consumes one
success draw and one transition draw per bandit regardless of the policy's
selections, so different policies under the same seed see identical source
paths (common random numbers).

A block is simulated in two walks, and each walk is one step function
driven by `_walk`.  A block's n slots are cut into K time segments of seg
slots (the last may be shorter), and its arrays are segment-major: the
true states and beliefs are (seg + 2, M, K, runs) slabs whose row o holds
offset o of every segment, and the successes, selections and transition
draws (seg, M, K, runs), so a step reads one contiguous (M, K, runs) slab
of each and writes the next.  The true states depend on the draws alone,
so they are walked first (`_true_state_step`: three numpy calls per step,
plus an add per state beyond two in the largest chain).  The belief walk
(`_belief_step`) does only what depends on the previous slot's selection.
For gain_index and myopic the state ids are ranks in the top-m order
(highest score, then lowest label), so a slot selects its m smallest
belief ids: seven calls select, mask the successes, gather the passive
successors and the reset states, and merge them.  Round robin keeps the
grid ids and a fixed selection: three calls.  Apart from the partition at
m > 1, no call in a step goes through a Python-level numpy wrapper and
none casts an input; the selection compares with no broadcast operand,
which numpy would buffer.  Costs and traces are gathered per block.

At 100-500 lanes a slot costs about numpy's per-call floor, so both walks
speculate along time: the K segments are walked in lockstep from guessed
starts by the same steps, K times the lanes per call, then repaired in
rounds.  Each round walks all K segments again, segment s from the end
segment s - 1 reached in the round before, so round r makes segment r
true while the segments before it repeat their stored walks.  A step is
deterministic given the block's draws, so the walk stops exactly, bit for
bit, at the first step whose states all meet the stored walk, which is
soon: a success and aging into omega both forget where a belief started,
and a shared draw sends most true states of a chain to one successor.  K
is the number of segments of at least _SEGMENT_SLOTS slots whose lanes fit
in _SEGMENT_LANES, or 1 below _MIN_SEGMENTS (500-lane or short calls),
where a walk is one round, slot by slot, that reads the block's draws
through a view.  A speculating block's draws are laid out once into the
slab layout, half of its segments at a time.  Two segments in a row that
start true and do not meet their stored walks within their rounds mean
slowly mixing sources: that walk finishes the block's rounds without
comparing, and walks the rest of the call so (in one segment once neither
walk speculates).  A walk takes at most as many steps as the block has
slots.  `SimResult.walk_steps` counts the steps of both walks.

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
from .errors import check_integer
from .index_policy import gain_index_tables, or_active
from .lagrange import gradient_search, make_problem
from .parallel import in_parts, max_parts
from .rng import RunStreams, check_seed
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
        self.m = check_integer(self.m, "m")
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


def check_tables(instance: RMABInstance, tables, mdps) -> None:
    """Raise ValueError unless each table was computed for its bandit of
    `instance` and its truncated MDP in `mdps`: the same label, criterion,
    depth and belief grid, and every table at one multiplier."""
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


def _true_state_step(u, transition_cdf, chain_base):
    """`step(o, x, out)` for `_walk`: into out, the true states that follow
    x, the (M, K, runs) global ids at offset o of a block's K segments,
    given their transition draws u[o] (u is (seg, M, K, runs)).  A state's
    next id is its chain offset (chain_base, (M,)) plus the number of its
    padded cdf entries the draw exceeds.  The comparison writes 0/1 as
    int64, so every add is int64 + int64: a bool operand would make each
    add cast it, which costs more."""
    lanes = u.shape[1:]
    draws = list(u)
    chain_offset = np.broadcast_to(chain_base[:, None, None], lanes).copy()
    cdf = np.empty(transition_cdf.shape[:1] + lanes)
    above = np.empty(cdf.shape, dtype=np.int64)
    first, further = above[0], list(above[1:])

    def step(o, x, out):
        transition_cdf.take(x, axis=1, out=cdf, mode="clip")
        np.greater(draws[o], cdf, out=above, casting="unsafe")
        np.add(chain_offset, first, out=out)
        for row in further:
            out += row

    return step


def _belief_step(X, act, reset, passive_next, m, chosen):
    """`step(o, b, out)` for `_walk`: into out, the beliefs that follow b,
    the (M, K, runs) ids at offset o of a block's K segments (act, chosen:
    (seg, M, K, runs); X: the true states, (seg + 2, M, K, runs)).  A
    bandit moves to its reset state where act[o] holds, else to its
    passive successor.  With m, act[o] (the successes) is first restricted
    to the m bandits of each run holding the smallest belief ids, which are
    recorded in chosen[o]; without it, act already holds a fixed selection.
    act is read, never overwritten, and each step gathers its reset states
    from the true states X[o]."""
    lanes = act.shape[1:]
    states, successes = list(X), list(act)
    selected = list(chosen) if m is not None else None
    hit = np.empty(lanes, dtype=bool)
    least = np.empty((1,) + lanes[1:], dtype=np.int64)
    kth = np.empty(lanes, dtype=np.int64)
    resets = np.empty(lanes, dtype=np.int64)

    def step(o, b, out):
        a = successes[o]
        if m is not None:
            # each run's m-th smallest id, copied to every bandit's row:
            # numpy buffers a broadcast operand of a comparison, which costs more
            if m == 1:
                np.copyto(kth, np.minimum.reduce(b, axis=0, out=least, keepdims=True))
            else:
                np.copyto(kth, np.partition(b, m - 1, axis=0)[m - 1 : m])
            a = np.logical_and(a, np.less_equal(b, kth, out=selected[o]), out=hit)
        passive_next.take(b, out=out, mode="clip")
        np.putmask(out, a, reset.take(states[o], out=resets, mode="clip"))

    return step


def _draw_segments(streams: RunStreams, n: int, rho, act, u) -> None:
    """Draw a block of n slots and lay it out segment-major: into act the
    successes (each bandit's success draw below its rho) and into u the
    transition draws, both (seg, M, K, runs).  Half of the segments are
    drawn at a time, each run's stream still read in order, so only half a
    block of raw draws is held at once; the last segment's padded slots
    keep draws of the first half."""
    seg, M, K, runs = u.shape
    half = -(-K // 2)
    raw = np.empty((runs, half * seg * 2 * M))
    for lo, hi in ((0, half), (half, K)):
        drawn = (min(hi * seg, n) - lo * seg) * 2 * M
        streams.draw(drawn, out=raw[:, :drawn])
        # (seg, 2M, hi - lo, runs): offset o of segment lo + s is raw[r, s, o]
        part = raw[:, : (hi - lo) * seg * 2 * M].reshape(runs, hi - lo, seg, 2 * M).transpose(2, 3, 1, 0)
        np.less(part[:, :M], rho, out=act[:, :, lo:hi])
        u[:, :, lo:hi] = part[:, M:]


def _walk(S: np.ndarray, n: int, step, speculate: bool) -> tuple[int, bool]:
    """Walk a block of n slots cut into K segments of seg slots (the last
    may be shorter) from S[0, :, 0]; return the steps taken and whether
    speculation paid.

    S is (seg + 2, M, K, runs), segment-major: S[o, :, s] holds the states
    before slot s * seg + o, so every step reads one contiguous (M, K, runs)
    slab and writes the next; the last row is scratch.  `step(o, now, out)`
    writes to out the states that follow `now`, those at offset o of every
    segment.  The walk goes in rounds, each walking all K segments in
    lockstep for seg steps (the last round stops at the last slot).  Round
    0 starts every segment from the guess S[0, :, 0]; round r >= 1 starts
    segment s >= 1 from the end segment s - 1 reached in the round before.
    By induction segments 0 .. r - 1 are true when round r starts, so
    segment r starts true, and the segments before it repeat their stored
    walk.  With K = 1 this is one round, slot by slot.

    To speculate, rounds r >= 1 compare each step's states with the stored
    walk (the last segment's padded offsets excluded).  A step depends only
    on its state and its slot's data, so a segment that meets its stored
    walk goes on exactly as the stored one: the walk stops, exact, at the
    first step whose states all equal the stored ones.  A segment r that
    meets its stored walk leaves segment r + 1's stored walk true, so
    segment r misses its own in round r >= 2 only after segment r - 1
    missed in round r - 1 too: the sources mix slower than a segment.  The
    walk then stops comparing and finishes its rounds, and the False return
    makes the caller walk the rest of the call without speculating.  A
    miss in round 1 alone is no such sign, as its stored walk started from
    the guess.  Either way the walk takes at most n steps."""
    seg, K = S.shape[0] - 2, S.shape[2]
    last = n - (K - 1) * seg
    *rows, new = S
    if speculate and K > 1:
        differ = np.empty(new.shape, dtype=bool)
        tail = np.s_[:, :-1]  # the last segment's padded offsets stay out of the test
        checks = [
            (new, row, differ) if o < last else (new[tail], row[tail], differ[tail])
            for o, row in enumerate(rows[1:])
        ]
    new[...] = S[0, :, :1]  # the guess, through the scratch: an overlapping copy would allocate
    S[0, :, 1:] = new[:, 1:]
    for r in range(K):
        if r:
            S[0, :, 1:] = S[seg, :, :-1]
        compare = speculate and r > 0
        for o in range(seg if r < K - 1 else last):
            if compare:
                fresh, stored, diff = checks[o]
                step(o, rows[o], new)
                np.not_equal(fresh, stored, out=diff)
                if not np.count_nonzero(diff):
                    return r * seg + o + 1, True
                np.copyto(stored, fresh)
            else:
                step(o, rows[o], rows[o + 1])
        if compare and r >= 2 and np.count_nonzero(diff[:, r]):
            speculate = False
    return n, K == 1


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
    `burn_in` (average cost only; default a tenth of the horizon) must
    leave at least one slot; under discounting it must be None or 0.
    `record_y` (which needs tables) logs the first run's OR decisions
    (`index_policy.or_active`) per slot and the selected bandits.  `seed`
    (default `instance.seed`) must be an integer in [0, 2**64 - 1]; run r
    draws from child r of `SeedSequence(seed)`, so identical seeds yield
    identical traces.
    """
    horizon, runs = check_integer(horizon, "horizon"), check_integer(runs, "runs")
    burn_in = None if burn_in is None else check_integer(burn_in, "burn_in")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    M = instance.n_bandits
    m = instance.m
    seed = check_seed(instance.seed if seed is None else seed)
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
        check_tables(instance, tables, mdps)

    if beta == 1.0:
        burn = int(0.1 * horizon) if burn_in is None else int(burn_in)
        if burn >= horizon:
            raise ValueError("burn_in must leave at least one slot")
    elif burn_in:
        raise ValueError(f"burn_in must be 0 or None under discounting (beta = {beta}), got {burn_in}")
    else:
        burn = 0

    # one flat table per quantity: bandit i's truncated state s is global id
    # offset[i] + s, and its source state k is global id chain_base[i] + k
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
    rho = np.array([b.success_prob for b in instance.bandits])[:, None, None]
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
        served = np.zeros((M, runs), dtype=np.int64)
        beta_pow = 1.0
        or_mask_trace = np.zeros((horizon, M), dtype=bool) if record else None
        selection_trace = np.zeros((horizon, m), dtype=np.int64) if record else None
        # blocks of near-equal length, so that the last one is long enough to
        # speculate too
        block = max(1, min(horizon, _BLOCK_DOUBLES // (2 * M * runs)))
        block = -(-horizon // -(-horizon // block))

        def segments(n: int) -> tuple[int, int]:
            """(K, seg): the segments a block of n slots speculates in, and
            their length (the last may be shorter); (1, n) if too few fit."""
            k = min(_SEGMENT_LANES // (M * runs), n // _SEGMENT_SLOTS)
            if k < _MIN_SEGMENTS:
                return 1, n
            seg = -(-n // k)
            return -(-n // seg), seg

        # Each block's arrays are segment-major views of buffers made once
        # for the largest block (all blocks but the last are equally long):
        # X and B, (seg + 2, M, K, runs), hold the true-state and belief ids
        # before slot s * seg + o of the block at [o, :, s] (see `_walk`);
        # the successes, `chosen` and the transition draws are
        # (seg, M, K, runs).  A slot's draws are, in each run's fixed order,
        # M success draws then M transition draws, after one initial draw
        # per bandit.
        shapes = [segments(n) for n in {block, horizon - (horizon - 1) // block * block}]
        slots = max(K * seg for K, seg in shapes)
        streams = RunStreams(seed, runs, first=lo)
        x_buf = np.empty(max(K * (seg + 2) for K, seg in shapes) * M * runs, dtype=np.int64)
        b_buf = chosen_buf = None  # made once the first block's draws are freed
        act_buf = np.empty(slots * M * runs, dtype=bool)
        u_buf = np.empty(slots * M * runs) if any(K > 1 for K, _ in shapes) else None
        # row 0 carries the totals of the blocks before, rows 1..n a block's
        # weighted slot costs in slot order; the cumsum adds them in order
        totals = np.zeros((slots + 1, runs))
        x_start = chain_base[:, None] + (streams.draw(M).T > start_cdf[:, :, None]).sum(axis=0)
        b_start = belief[:, None]
        walk_steps = 0
        # a walk whose speculation did not pay walks the rest of the call
        # without it, and a block neither walk speculates in is one segment
        speculate_true = speculate_beliefs = True
        for first in range(0, horizon, block):
            n = min(block, horizon - first)
            K, seg = segments(n) if speculate_true or speculate_beliefs else (1, n)
            last = n - (K - 1) * seg
            X = x_buf[: (seg + 2) * M * K * runs].reshape(seg + 2, M, K, runs)
            X[0, :, 0] = x_start
            act = act_buf[: seg * M * K * runs].reshape(seg, M, K, runs)
            if K == 1:
                # (n, 2M, 1, runs) view of the block's draws: slot j's success
                # draws are u[j, :M], its transition draws u[j, M:]
                u = streams.draw(n * 2 * M).reshape(runs, n, 2 * M).transpose(1, 2, 0)[:, :, None]
                np.less(u[:, :M], rho, out=act)
                u = u[:, M:]
            else:
                u = u_buf[: seg * M * K * runs].reshape(seg, M, K, runs)
                _draw_segments(streams, n, rho, act, u)
            # the true states depend on the draws alone, so they are walked
            # first, and the beliefs' buffer is made only once the first
            # block's draws are freed
            steps, paid = _walk(X, n, _true_state_step(u, transition_cdf, chain_base), speculate_true)
            speculate_true &= paid
            walk_steps += steps
            del u
            if b_buf is None:
                b_buf = np.empty_like(x_buf)
                chosen_buf = np.empty_like(act_buf) if policy != "round_robin" else None
            B = b_buf[: X.size].reshape(X.shape)
            B[0, :, 0] = b_start
            if policy == "round_robin":
                slot = first + np.arange(seg)[:, None] + seg * np.arange(K)
                chosen = rr_masks[slot % cycle].transpose(0, 2, 1, 3)
                act &= chosen
                select = None
            else:
                chosen = chosen_buf[: act.size].reshape(act.shape)
                select = m
            steps, paid = _walk(B, n, _belief_step(X, act, reset, passive_next, select, chosen), speculate_beliefs)
            speculate_beliefs &= paid
            walk_steps += steps

            if record:
                # run 0's beliefs and selections in slot order, (n, M)
                beliefs, selected = (a[:seg, :, :, 0].transpose(2, 0, 1).reshape(K * seg, M)[:n] for a in (B, chosen))
                or_mask_trace[first : first + n] = or_active(index.take(beliefs), beta, lam_star)
                selection_trace[first : first + n] = np.nonzero(selected)[1].reshape(n, m)
            # the last segment's padded offsets are no slots
            served += chosen[:, :, :-1].sum(axis=(0, 2)) + chosen[:last, :, -1].sum(axis=0)
            # each slot's cost adds bandits 0..M-1 in order and the totals add
            # slots in order, as a slot-by-slot loop would (cumsum is sequential
            # where sum may add pairwise).  With K > 1 the costs are summed in
            # the transition draws' buffer, free since the true-state walk, and
            # copied into totals in slot order.
            in_order = totals[1 : K * seg + 1].reshape(K, seg, runs).transpose(1, 0, 2)
            cost = in_order if K == 1 else u_buf[: in_order.size].reshape(in_order.shape)
            entropy.take(B[:seg, 0], out=cost)
            for i in range(1, M):
                cost += entropy.take(B[:seg, i])
            if K > 1:
                np.copyto(in_order, cost)
            x_start, b_start = X[last, :, -1].copy(), B[last, :, -1].copy()
            # slot weights beta^t, or (beta = 1) 0 before the burn-in and 1 after
            weights = np.multiply.accumulate(np.r_[beta_pow, np.full(n - 1, beta)])
            beta_pow = weights[-1] * beta
            weights[: max(0, burn - first)] = 0.0
            totals[1 : n + 1] *= weights[:, None]
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
