"""Dual objective of the relaxed scheduling problem and its gradient search.

For service charge lam the relaxed problem decouples into single-bandit
solves; the dual objective is

    f(lam) = sum_i V_i(chi_i, lam) - m*lam/s,   s = solvers.charge_scale(beta)

with V_i the discounted value (s = 1 - beta), or at beta = 1 the gain g_i
(s = 1: the average-cost dual l(lam) = sum_i g_i(lam) - m*lam).  It is
concave and piecewise linear in lam, with derivative equal to the summed
expected activation usage minus the channel budget m/s.  The gradient
iteration lam_{k+1} = lam_k + a_k * f'(lam_k) with a_k = c/(k+1) stops once
consecutive derivatives bracket a sign change within epsilon.

Each solve is a batched policy iteration, and the number of its rounds sets
the search's cost.  Under a fixed policy every value is affine in lam, so a
solve's values carry exactly to any other charge along its own policy
(`BatchSolution.activations`).  A new solve starts from the kept solve whose
greedy interval lies nearest lam, carried to lam: one exact improvement step
of the nearest known optimal policy.  The start sets only the rounds paid:
the solve still returns the exact evaluation of a policy-iteration fixed
point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .belief_mdp import TruncatedBeliefMDP
from .errors import MaxItersExceeded
from .solvers import (
    BanditBatch,
    BatchSolution,
    SolveCounts,
    charge_scale,
    criterion_of,
    greedy_interval,
    solve_batch,
)

_WARM_SOLVES = 8  # solves kept as warm starts; each holds two n-state arrays


@dataclass
class LagrangeProblem:
    mdps: list[TruncatedBeliefMDP]
    initial_states: list[int]
    m: int
    criterion: str
    stepsize_c: float
    epsilon: float
    max_iters: int = 5000

    def __post_init__(self):
        if not 1 <= self.m < len(self.mdps):
            raise ValueError(f"need 1 <= m < M, got m={self.m}, M={len(self.mdps)}")
        if self.epsilon <= 0 or self.stepsize_c <= 0 or self.max_iters < 1:
            raise ValueError("stepsize_c and epsilon must be > 0, max_iters >= 1")
        if len(self.initial_states) != len(self.mdps):
            raise ValueError("one initial state per bandit required")
        # identical (mdp, initial state) pairs are solved once and shared
        # (duplicated bandits are common in sweeps)
        index, unique = {}, []
        self.members = []  # batch position of each bandit
        for mdp, s in zip(self.mdps, self.initial_states):
            key = (id(mdp), s)
            if key not in index:
                index[key] = len(unique)
                unique.append((mdp, s))
            self.members.append(index[key])
        self.batch = BanditBatch([mdp for mdp, _ in unique], [s for _, s in unique])
        self.beta = self.batch.discount
        if self.criterion != criterion_of(self.beta):
            raise ValueError(f"a {self.criterion!r} problem cannot have discount {self.beta} (average cost is 1)")
        self.budget = self.m / charge_scale(self.beta)  # the m channels, weighted as one charge


def make_problem(
    mdps,
    m,
    criterion,
    initial_states=None,
    stepsize_c=None,
    epsilon=None,
    max_iters=5000,
) -> LagrangeProblem:
    """LagrangeProblem with scale-aware defaults: c = charge_scale(beta)*B_H
    and epsilon = 1e-3*B_H, where B_H = max_i log2 N_i."""
    if initial_states is None:
        initial_states = [0] * len(mdps)  # omega
    b_h = max(np.log2(mdp.bandit.chain.n_states) for mdp in mdps)
    if stepsize_c is None:
        stepsize_c = charge_scale(mdps[0].discount) * b_h
    if epsilon is None:
        epsilon = 1e-3 * b_h
    return LagrangeProblem(
        mdps=list(mdps),
        initial_states=list(initial_states),
        m=m,
        criterion=criterion,
        stepsize_c=float(stepsize_c),
        epsilon=float(epsilon),
        max_iters=max_iters,
    )


@dataclass
class GradientTrace:
    iterates: list[tuple[float, float]]          # (lam_k, derivative at lam_k)
    lambda_star: float | None
    stop_reason: str                             # 'converged' | 'bisection' | 'max_iters'
    bracket: tuple[float, float] | None = field(default=None)
    policy_evaluations: int = 0                  # exact single-bandit policy evaluations
    pi_rounds: int = 0                           # batched policy-iteration rounds
    solves_skipped: int = 0                      # iterates inside a known greedy interval
    # the search's own solve of every distinct bandit at lambda_star
    solution: BatchSolution | None = field(default=None, repr=False, compare=False)


def _derivative(problem: LagrangeProblem, sol: BatchSolution) -> float:
    total = sum(float(sol.usage[j]) for j in problem.members)
    return float(total - problem.budget)


def objective_derivative(problem: LagrangeProblem, lam: float, warm=None, counts=None) -> float:
    """f'(lam) = sum_i dV_i/dlam - m/charge_scale(beta);
    `warm` is optional warm-start values (see solvers.solve_batch)."""
    return _derivative(problem, solve_batch(problem.batch, lam, warm, counts))


def objective_value(problem: LagrangeProblem, lam: float, warm=None) -> float:
    """f(lam) or l(lam); a lower bound on the original problem's optimum."""
    start = solve_batch(problem.batch, lam, warm).objective
    total = sum(float(start[j]) for j in problem.members)
    return float(total - problem.m * lam / charge_scale(problem.beta))


def derivative_zero_tol(problem: LagrangeProblem) -> float:
    """Width of the numerical zero band for f' in the stopping test.

    On a flat-optimum interval f' is exactly zero in theory but comes out of
    the linear solves as O(1e-14) noise of either sign; snapping |f'| below
    this band to zero lets the sign-product criterion fire there.
    """
    return 1e-9 * max(1.0, problem.budget)


def gradient_search(problem: LagrangeProblem) -> GradientTrace:
    """Run lam_{k+1} = max(lam_k + c/(k+1) * f'(lam_k), 0) from lam_0 = 0.

    Stops when f'(lam_k) * f'(lam_{k+1}) <= 0 and |lam_{k+1} - lam_k| <
    epsilon, returning lambda_star = min of the bracketing pair and, as
    `solution`, the batch solve made at that iterate; derivatives within
    `derivative_zero_tol` of zero count as zero in the sign test.

    Each solve, the final one at lam_star and the bisection's included,
    starts from one of the last _WARM_SOLVES solves: the one whose greedy
    interval lies nearest lam (distance max(lo - lam, lam - hi, 0); a solve
    without an interval counts as [lam_j, lam_j]).  Its values are carried
    to lam as values + (lam - lam_j) * activations, or taken as they are
    when it has no activation values (a multichain final policy).

    f' changes only where some bandit's optimal policy does, so each solve
    also yields the interval of charges on which its policies stay greedy
    (`greedy_interval`); an iterate inside a known interval reuses that
    derivative, bit for bit, without a solve.  If max_iters iterations end
    without the stop but the trace holds f' > 0 below f' < 0, the search
    bisects between them down to a bracket narrower than epsilon
    (stop_reason 'bisection').
    """
    deriv_tol = derivative_zero_tol(problem)

    def snap(d):
        return 0.0 if abs(d) <= deriv_tol else d

    counts = SolveCounts()
    known = []  # (lo, hi, derivative) of each solved policy's greedy interval
    recent = deque(maxlen=_WARM_SOLVES)  # (lo, hi, solution) of the last solves
    skipped = 0

    def solve(lam):
        """The batch solve at lam, started from the kept solve whose greedy
        interval lies nearest lam, its values carried along its policy."""
        warm = None
        if recent:
            _, _, near = min(recent, key=lambda kept: max(kept[0] - lam, lam - kept[1], 0.0))
            warm = near.values
            if near.activations is not None:
                warm = warm + (lam - near.lam) * near.activations
        sol = solve_batch(problem.batch, lam, warm, counts)
        interval = greedy_interval(sol)
        recent.append((*(interval or (lam, lam)), sol))
        return sol, interval

    def derivative_at(lam):
        """f'(lam) and the solve at lam, or None in place of a skipped solve."""
        nonlocal skipped
        for lo, hi, deriv in known:
            if lo <= lam <= hi:
                skipped += 1
                return deriv, None
        sol, interval = solve(lam)
        deriv = _derivative(problem, sol)
        if interval is not None:
            known.append((*interval, deriv))
        return deriv, sol

    def finish(lam_star, solution, stop_reason, bracket):
        if solution is None:
            solution, _ = solve(lam_star)
        return GradientTrace(
            iterates=iterates,
            lambda_star=lam_star,
            stop_reason=stop_reason,
            bracket=bracket,
            solves_skipped=skipped,
            solution=solution,
            **asdict(counts),
        )

    lam = 0.0
    deriv, sol = derivative_at(lam)
    iterates = [(lam, deriv)]
    for k in range(problem.max_iters):
        step = problem.stepsize_c / (k + 1) * deriv
        lam_next = max(lam + step, 0.0)
        deriv_next, sol_next = derivative_at(lam_next)
        iterates.append((lam_next, deriv_next))
        if snap(deriv) * snap(deriv_next) <= 0.0 and abs(lam_next - lam) < problem.epsilon:
            lam_star, solution = (lam, sol) if lam <= lam_next else (lam_next, sol_next)
            return finish(lam_star, solution, "converged", (min(lam, lam_next), max(lam, lam_next)))
        lam, deriv, sol = lam_next, deriv_next, sol_next

    above = [x for x, d in iterates if snap(d) > 0.0]
    below = [x for x, d in iterates if snap(d) < 0.0]
    if above and below:
        lo, hi, sol = max(above), min(below), None
        while hi - lo >= problem.epsilon:
            mid = 0.5 * (lo + hi)
            d, sol_mid = derivative_at(mid)
            iterates.append((mid, d))
            if snap(d) > 0.0:
                lo, sol = mid, sol_mid
            else:
                hi = mid
        return finish(lo, sol, "bisection", (lo, hi))
    trace = GradientTrace(
        iterates=iterates,
        lambda_star=None,
        stop_reason="max_iters",
        solves_skipped=skipped,
        **asdict(counts),
    )
    raise MaxItersExceeded(
        f"gradient search did not meet the stopping criterion in {problem.max_iters} iterations; "
        f"last lambda = {lam:.9g}, f'(lambda) = {deriv:.3g}, last step = {step:.3g}",
        trace=trace,
    )
