import hashlib
from dataclasses import replace

import numpy as np
import pytest

from uoisched import (
    BanditSpec,
    MaxItersExceeded,
    build_truncated,
    choose_truncation,
    gradient_search,
    make_problem,
    objective_derivative,
    objective_value,
    policy_iteration_discounted,
    solve_average,
    validate_chain,
)
import uoisched.lagrange as lagrange_module
import uoisched.solvers as solvers_module
from uoisched.index_policy import gain_index_tables
from uoisched.lagrange import _derivative, derivative_zero_tol
from uoisched.solvers import greedy_interval, solve_batch
from conftest import (
    FIG1,
    derivative,
    force_multichain,
    induced_transition,
    mixed_mdps,
    random_bandit,
    random_chain,
    rho_one_pair,
)


def fig1_mdps(beta, count=2, rho=1.0, eta=1e-6):
    bandit = BanditSpec(validate_chain(FIG1), rho, "fig1")
    L, _ = choose_truncation(bandit, eta)
    return [build_truncated(bandit, L, beta) for _ in range(count)]


def monte_carlo_discounted_activations(mdp, actions, start, runs, horizon, seed):
    """Oracle: simulate the truncated single-bandit chain under the policy and
    average the discounted activation sums (independent of the linear solver)."""
    rng = np.random.default_rng(seed)
    state = np.full(runs, start)
    total = np.zeros(runs)
    beta_pow = 1.0
    reset_ids = mdp.reset_states
    rho = mdp.bandit.success_prob
    for _ in range(horizon):
        act = actions[state].astype(bool)
        total += beta_pow * act
        beta_pow *= mdp.discount
        u = rng.uniform(size=runs)
        success = act & (u < rho)
        rows = np.cumsum(mdp.states[state], axis=1)
        draws = (rng.uniform(size=runs)[:, None] > rows).sum(axis=1)
        reset_to = reset_ids[np.minimum(draws, mdp.states.shape[1] - 1)]
        state = np.where(success, reset_to, mdp.passive_next[state])
    return total.mean(), total.std(ddof=1) / np.sqrt(runs)


class TestDerivativeDiscounted:
    def test_all_active_hits_upper_bound(self):
        (mdp,) = fig1_mdps(0.9, count=1)
        actions = np.ones(mdp.n_states, dtype=np.int8)
        assert derivative(mdp, actions, 0) == pytest.approx(10.0, abs=1e-10)

    def test_all_passive_is_zero(self):
        (mdp,) = fig1_mdps(0.9, count=1)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        assert derivative(mdp, actions, 0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(314)
        bandit = random_bandit(rng, 2, "mc", rho=0.8)
        mdp = build_truncated(bandit, 10, 0.9)
        actions = rng.integers(0, 2, mdp.n_states).astype(np.int8)
        exact = derivative(mdp, actions, 0)
        horizon = int(np.ceil(np.log(1e-6 * (1 - 0.9)) / np.log(0.9)))
        est, se = monte_carlo_discounted_activations(mdp, actions, 0, 100_000, horizon, 4000)
        assert abs(exact - est) <= 3 * se


class TestDerivativeAverage:
    def test_all_active_is_one(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        assert derivative(mdp, np.ones(mdp.n_states, dtype=np.int8), 0) == pytest.approx(1.0, abs=1e-12)

    def test_all_passive_is_zero(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        assert derivative(mdp, np.zeros(mdp.n_states, dtype=np.int8), 0) == pytest.approx(0.0, abs=1e-12)

    def test_active_only_at_omega_matches_stationary_mass(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        actions[0] = 1  # transmit only from the equilibrium belief, rho = 1
        rate = derivative(mdp, actions, 0)
        p = induced_transition(mdp, actions).toarray()
        n = mdp.n_states
        a = np.vstack([p.T - np.eye(n), np.ones(n)])
        pi_stat, *_ = np.linalg.lstsq(a, np.concatenate([np.zeros(n), [1.0]]), rcond=None)
        assert rate == pytest.approx(float(pi_stat[0]), abs=1e-9)
        assert 0.0 < rate < 1.0


class TestFallbackReporting:
    def test_search_without_fallbacks_reports_work(self, monkeypatch):
        solves = count_solves(monkeypatch)
        (mdp,) = fig1_mdps(1.0, count=1)
        problem = make_problem([mdp, mdp], 1, "average")
        trace = gradient_search(problem)
        # one MDP used twice is solved once per solved gradient step, by
        # policy iteration: one exact evaluation per round
        assert problem.batch.size == 1
        assert len(trace.iterates) == 33
        assert (trace.pi_rounds, trace.solves_skipped) == (16, 26)
        # 7 iterates solved, 26 skipped, and lambda* (skipped) solved once more
        assert len(solves) == 8 and solves[-1] == trace.lambda_star
        assert len(solves) + trace.solves_skipped == len(trace.iterates) + 1
        assert trace.policy_evaluations == trace.pi_rounds


def count_solves(monkeypatch):
    """Record the multiplier of every batch solve the search makes."""
    solves = []
    real = lagrange_module.solve_batch

    def counted(batch, lam, *args, **kwargs):
        solves.append(lam)
        return real(batch, lam, *args, **kwargs)

    monkeypatch.setattr(lagrange_module, "solve_batch", counted)
    return solves


def mixed_problem(criterion, beta):
    """Bandits with N in {2, 3, 4}, mixed rho and L from 1 to 37, one duplicated."""
    mdps = mixed_mdps(beta)
    mdps.append(mdps[2])
    initial = [0, 3, 5, 0, 11, 2, 5] if criterion == "discounted" else None
    return make_problem(mdps, 3, criterion, initial_states=initial)


class TestBatchedDerivative:
    @pytest.mark.parametrize("lam", [0.0, 0.15, 0.4, 1.5])
    def test_discounted_matches_loop_of_single_solves(self, lam):
        problem = mixed_problem("discounted", 0.9)
        assert problem.batch.size == 6
        derivs, values = [], []
        for mdp, s in zip(problem.mdps, problem.initial_states):
            pol = policy_iteration_discounted(mdp, lam)
            derivs.append(derivative(mdp, pol, s))
            values.append(pol.values[s])
        expect = sum(derivs) - problem.m / (1 - 0.9)
        assert objective_derivative(problem, lam) == pytest.approx(expect, rel=1e-12, abs=1e-11)
        expect_value = sum(values) - problem.m * lam / (1 - 0.9)
        assert objective_value(problem, lam) == pytest.approx(expect_value, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.15, 0.4, 1.5])
    def test_average_matches_loop_of_single_solves(self, lam):
        problem = mixed_problem("average", 1.0)
        pols = [solve_average(mdp, lam) for mdp in problem.mdps]
        pairs = zip(problem.mdps, pols, problem.initial_states)
        expect = sum(derivative(mdp, pol, s) for mdp, pol, s in pairs) - problem.m
        assert objective_derivative(problem, lam) == pytest.approx(expect, rel=1e-12, abs=1e-12)
        expect_value = sum(pol.gain for pol in pols) - problem.m * lam
        assert objective_value(problem, lam) == pytest.approx(expect_value, rel=1e-12)


class TestObjectiveDerivative:
    def test_discounted_endpoint_at_zero(self):
        mdps = fig1_mdps(0.9, count=3)
        problem = make_problem(mdps, 2, "discounted")
        assert objective_derivative(problem, 0.0) == pytest.approx((3 - 2) / 0.1, abs=1e-9)

    def test_average_endpoint_at_zero(self):
        mdps = fig1_mdps(1.0, count=3)
        problem = make_problem(mdps, 1, "average")
        assert objective_derivative(problem, 0.0) == pytest.approx(3 - 1, abs=1e-9)

    def test_large_lambda_limit(self):
        mdps = fig1_mdps(0.9)
        problem = make_problem(mdps, 1, "discounted")
        assert objective_derivative(problem, 4000.0) == pytest.approx(-1 / 0.1, abs=1e-9)

    def test_rejects_negative_lambda(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        with pytest.raises(ValueError):
            objective_derivative(problem, -0.1)


class TestProblemConstruction:
    def test_m_equal_to_bandits_rejected(self):
        mdps = fig1_mdps(0.9)
        with pytest.raises(ValueError):
            make_problem(mdps, 2, "discounted")

    @pytest.mark.parametrize("criterion, beta", [("discounted", 1.0), ("average", 0.9), ("discount", 0.9)])
    def test_criterion_must_match_the_discount(self, criterion, beta):
        with pytest.raises(ValueError, match="cannot have discount"):
            make_problem(fig1_mdps(beta), 1, criterion)

    def test_scale_aware_defaults(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        assert problem.stepsize_c == pytest.approx((1 - 0.9) * 1.0)
        assert problem.epsilon == pytest.approx(1e-3)
        avg = make_problem(fig1_mdps(1.0), 1, "average")
        assert avg.stepsize_c == pytest.approx(1.0)


class TestGradientSearch:
    def test_converges_with_certificate(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", epsilon=1e-3)
        trace = gradient_search(problem)
        assert trace.stop_reason == "converged"
        lam_lo, lam_hi = trace.bracket
        assert abs(lam_hi - lam_lo) < problem.epsilon
        tol = derivative_zero_tol(problem)
        (_, d1), (_, d2) = trace.iterates[-2:]
        s1 = 0.0 if abs(d1) <= tol else d1
        s2 = 0.0 if abs(d2) <= tol else d2
        assert s1 * s2 <= 0.0
        assert objective_derivative(problem, lam_lo) >= -tol
        assert objective_derivative(problem, lam_hi) <= tol
        assert trace.lambda_star == lam_lo

    def test_dense_sweep_confirms_bracket(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        trace = gradient_search(problem)
        lam_lo, lam_hi = trace.bracket
        tol = derivative_zero_tol(problem)
        step = max(problem.epsilon / 10, (lam_hi - lam_lo) / 20)
        grid = np.arange(lam_lo, lam_hi + step, step)
        derivs = np.array([objective_derivative(problem, lam) for lam in grid])
        snapped = np.where(np.abs(derivs) <= tol, 0.0, derivs)
        assert np.any(snapped[:-1] * snapped[1:] <= 0.0)

    def test_iterates_stay_nonnegative(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        trace = gradient_search(problem)
        assert all(lam >= 0.0 for lam, _ in trace.iterates)

    def test_derivatives_nonincreasing_along_lambda(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        grid = np.linspace(0.0, 1.0, 12)
        derivs = [objective_derivative(problem, lam) for lam in grid]
        assert np.all(np.diff(derivs) <= 1e-6)

    # a step size so small that three iterates never leave f' > 0: no
    # bracket to bisect
    def test_max_iters_carries_trace(self, monkeypatch):
        solves = record_solves(monkeypatch)
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", stepsize_c=1e-6, max_iters=3)
        with pytest.raises(MaxItersExceeded) as err:
            gradient_search(problem)
        assert err.value.trace.stop_reason == "max_iters"
        assert_work_is_the_sum(err.value.trace, solves)
        assert len(err.value.trace.iterates) == 4
        assert all(d > 0 for _, d in err.value.trace.iterates)

    def test_max_iters_message_names_where_the_search_stalled(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", stepsize_c=1e-6, max_iters=3)
        with pytest.raises(MaxItersExceeded) as err:
            gradient_search(problem)
        (lam_prev, d_prev), (lam, d) = err.value.trace.iterates[-2:]
        step = problem.stepsize_c / 3 * d_prev
        assert lam == max(lam_prev + step, 0.0)
        message = str(err.value)
        assert f"last lambda = {lam:.9g}" in message
        assert f"f'(lambda) = {d:.3g}" in message
        assert f"last step = {step:.3g}" in message
        assert err.value.trace.solution is None

    def test_max_iters_must_allow_one_step(self):
        with pytest.raises(ValueError, match="max_iters >= 1"):
            make_problem(fig1_mdps(0.9), 1, "discounted", max_iters=0)

    def test_average_criterion_converges(self):
        problem = make_problem(fig1_mdps(1.0), 1, "average")
        trace = gradient_search(problem)
        assert trace.stop_reason == "converged"
        assert trace.lambda_star > 0


class TestSearchSolution:
    """`GradientTrace.solution` is the search's own batch solve at lambda*."""

    @staticmethod
    def _problem(criterion, seed=77):
        rng = np.random.default_rng(seed)
        beta = 0.9 if criterion == "discounted" else 1.0
        mdps = [
            build_truncated(random_bandit(rng, n, f"b{i}"), L, beta)
            for i, (n, L) in enumerate([(2, 6), (3, 11), (4, 8), (2, 14)])
        ]
        return make_problem(mdps, 2, criterion)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_solution_is_the_solve_at_lambda_star(self, criterion):
        problem = self._problem(criterion)
        trace = gradient_search(problem)
        sol = trace.solution
        assert sol.lam == trace.lambda_star and sol.criterion == criterion
        assert sol.batch is problem.batch
        usage = sum(float(sol.usage[j]) for j in problem.members)
        budget = problem.m / (1.0 - problem.beta) if criterion == "discounted" else problem.m
        at_star = [d for lam, d in trace.iterates[-2:] if lam == trace.lambda_star]
        assert float(usage - budget) in at_star

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_solution_matches_a_cold_solve(self, criterion):
        problem = self._problem(criterion)
        trace = gradient_search(problem)
        cold = solve_batch(problem.batch, trace.lambda_star)
        assert np.array_equal(trace.solution.actions, cold.actions)
        assert np.allclose(trace.solution.values, cold.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_later_warm_started_solves_leave_it_unchanged(self, criterion):
        problem = self._problem(criterion)
        trace = gradient_search(problem)
        sol = trace.solution
        before = {k: getattr(sol, k).copy() for k in ("actions", "values", "gains", "usage")}
        for lam in (0.0, 2.0 * trace.lambda_star + 0.1, trace.lambda_star):
            solve_batch(problem.batch, lam, sol.values)
        for key, array in before.items():
            assert np.array_equal(getattr(sol, key), array), key

    def test_not_in_repr_or_equality(self):
        trace = gradient_search(self._problem("discounted"))
        assert "solution" not in repr(trace)
        assert trace == replace(trace, solution=None)


def random_m4_problem(seed, criterion, max_iters=5000, beta=0.9):
    """Four random bandits truncated at eta 1e-6, m = 2; `beta` is the
    discount of the discounted criterion."""
    rng = np.random.default_rng(seed)
    bandits = [random_bandit(rng, rng.integers(2, 5), f"b{i}") for i in range(4)]
    beta = beta if criterion == "discounted" else 1.0
    mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits]
    return make_problem(mdps, 2, criterion, max_iters=max_iters)


def random_m10_problem(seed, criterion, rho, beta=0.9):
    """Ten random bandits at success probability `rho`, truncated at eta
    1e-6, m = 3; `beta` is the discount of the discounted criterion."""
    rng = np.random.default_rng(seed)
    bandits = [random_bandit(rng, int(rng.integers(2, 5)), f"b{i}", rho=rho) for i in range(10)]
    beta = beta if criterion == "discounted" else 1.0
    mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits]
    return make_problem(mdps, 3, criterion)


def shared_m10_problem(criterion):
    """The benchmark's M = 10 instance (`shared_instance` in
    bench/workloads.py): Dirichlet(1) columns drawn from seed 5 with N in
    {2, 3, 4} and a second eigenvalue of at most 0.9, rho = 0.8, truncated
    at eta 1e-6, m = 3, beta = 0.9 when discounted."""
    rng = np.random.default_rng(5)
    bandits = [BanditSpec(random_chain(rng, int(rng.integers(2, 5)), 0.9), 0.8, f"b{i}") for i in range(10)]
    beta = 0.9 if criterion == "discounted" else 1.0
    return make_problem([build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits], 3, criterion)


def reference_search(problem):
    """The gradient search with one solve per iterate, each warm-started
    from the last one's values: (iterates, lambda*, bracket, solution), the
    last three None when max_iters runs out."""
    tol = derivative_zero_tol(problem)
    lam = 0.0
    sol = solve_batch(problem.batch, lam)
    iterates = [(lam, _derivative(problem, sol))]
    for k in range(problem.max_iters):
        deriv = iterates[-1][1]
        lam_next = max(lam + problem.stepsize_c / (k + 1) * deriv, 0.0)
        sol_next = solve_batch(problem.batch, lam_next, sol.values)
        iterates.append((lam_next, _derivative(problem, sol_next)))
        (d0, d1) = (0.0 if abs(d) <= tol else d for d in (deriv, iterates[-1][1]))
        if d0 * d1 <= 0.0 and abs(lam_next - lam) < problem.epsilon:
            lam_star, solution = (lam, sol) if lam <= lam_next else (lam_next, sol_next)
            return iterates, lam_star, (min(lam, lam_next), max(lam, lam_next)), solution
        lam, sol = lam_next, sol_next
    return iterates, None, None, None


class TestKnownPolicyIntervals:
    """Iterates inside a solved policy's greedy interval skip their solve and
    leave the search bit-identical to one solve per iterate."""

    @staticmethod
    def assert_identical(problem):
        iterates, lam_star, bracket, solution = reference_search(problem)
        trace = gradient_search(problem)
        assert trace.iterates[: len(iterates)] == iterates
        if lam_star is None:
            assert trace.stop_reason == "bisection"
            return trace
        assert len(trace.iterates) == len(iterates)
        assert (trace.stop_reason, trace.lambda_star, trace.bracket) == ("converged", lam_star, bracket)
        assert trace.solution.actions.tobytes() == solution.actions.tobytes()
        assert trace.solution.values.tobytes() == solution.values.tobytes()
        return trace

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_fig1_bit_identical(self, criterion):
        trace = self.assert_identical(make_problem(fig1_mdps(0.9 if criterion == "discounted" else 1.0), 1, criterion))
        assert trace.solves_skipped > 0

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_mixed_problem_bit_identical(self, criterion):
        trace = self.assert_identical(mixed_problem(criterion, 0.9 if criterion == "discounted" else 1.0))
        assert trace.solves_skipped > 0

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_random_searches_bit_identical(self, criterion):
        # seed 1006 stalls under the average criterion; a max_iters of 500
        # keeps its reference loop short, and the first 501 iterates must
        # still agree before the bisection finish
        skipped = 0
        for seed in range(1000, 1020):
            skipped += self.assert_identical(random_m4_problem(seed, criterion, max_iters=500)).solves_skipped
        assert skipped > 0

    @pytest.mark.parametrize("rho", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_random_m10_searches_bit_identical(self, criterion, rho):
        # each solve starts from the nearest kept solve, not the last one;
        # the search still reaches the reference's iterates and solution
        for seed in range(2000, 2005):
            self.assert_identical(random_m10_problem(seed, criterion, rho))

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_solves_and_skips_account_for_every_iterate(self, criterion, monkeypatch):
        solves = count_solves(monkeypatch)
        trace = gradient_search(mixed_problem(criterion, 0.9 if criterion == "discounted" else 1.0))
        # every iterate is solved or skipped; a skipped lambda* is solved once more
        extra = len(solves) + trace.solves_skipped - len(trace.iterates)
        assert extra in (0, 1)
        if extra:
            assert solves[-1] == trace.lambda_star
        assert trace.solution.lam == trace.lambda_star
        assert trace.pi_rounds >= len(solves)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_interval_is_sound(self, criterion):
        problem = mixed_problem(criterion, 0.9 if criterion == "discounted" else 1.0)
        for lam in (0.05, 0.15, 0.4, 1.5):  # average: at 0.15 a bandit meets a multichain iterate
            sol = solve_batch(problem.batch, lam)
            interval = greedy_interval(sol)
            assert interval is not None
            lo, hi = interval
            assert lo < lam < hi
            ends = [max(lo, 0.0), min(hi, lam + 10.0)]
            for probe in np.linspace(*ends, 7):
                for warm in (None, sol.values):
                    again = solve_batch(problem.batch, float(probe), warm)
                    assert np.array_equal(again.actions, sol.actions), (lam, probe)
                    assert _derivative(problem, again) == _derivative(problem, sol)

    def test_interval_ends_at_a_policy_change(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        sol = solve_batch(problem.batch, 0.2)
        lo, hi = greedy_interval(sol)
        assert not np.array_equal(solve_batch(problem.batch, hi + 1e-4).actions, sol.actions)
        assert not np.array_equal(solve_batch(problem.batch, lo - 1e-4).actions, sol.actions)

    def test_no_interval_for_a_multichain_final_policy(self, monkeypatch):
        problem = make_problem(fig1_mdps(1.0), 1, "average")
        unichain = solve_batch(problem.batch, 0.3)
        # declared multichain, every iterate takes the multichain evaluation
        # and improvement step, and the solve ends at the same policy
        force_multichain(monkeypatch)
        sol = solve_batch(problem.batch, 0.3)
        assert np.array_equal(sol.actions, unichain.actions)
        assert sol.activations is None and greedy_interval(sol) is None


def record_solves(monkeypatch):
    """Record (lam, warm, solution) of every batch solve the search makes."""
    solves = []
    real = lagrange_module.solve_batch

    def recorded(batch, lam, warm=None):
        sol = real(batch, lam, warm)
        solves.append((lam, warm, sol))
        return sol

    monkeypatch.setattr(lagrange_module, "solve_batch", recorded)
    return solves


def assert_work_is_the_sum(trace, solves):
    """The trace's counters add up the rounds of the solves recorded, each
    round an evaluation of every bandit of its batch."""
    assert trace.pi_rounds == sum(sol.pi_rounds for _, _, sol in solves)
    assert trace.policy_evaluations == sum(sol.pi_rounds * sol.batch.size for _, _, sol in solves)


def distance(sol, lam):
    """How far lam lies from the greedy interval of `sol`, or from sol.lam
    when it has none."""
    lo, hi = greedy_interval(sol) or (sol.lam, sol.lam)
    return max(lo - lam, lam - hi, 0.0)


class TestWarmStarts:
    """Each solve of the search starts from the values of the solve, among
    the last eight, whose greedy interval lies nearest its charge, carried
    there along that solve's policies."""

    @staticmethod
    def assert_nearest_of_the_last_eight(solves):
        """Check every start; returns how many starts a longer memory would
        have taken from an older, nearer solve, and how many were taken
        uncarried from a solve without activation values."""
        older = uncarried = 0
        assert solves[0][1] is None
        for i, (lam, warm, _) in enumerate(solves[1:], start=1):
            kept = [sol for _, _, sol in solves[max(0, i - 8) : i]]
            near = min(kept, key=lambda sol: distance(sol, lam))
            if near.activations is None:
                assert warm is near.values
                uncarried += 1
            else:
                assert warm.tobytes() == (near.values + (lam - near.lam) * near.activations).tobytes()
            older += min(distance(sol, lam) for _, _, sol in solves[:i]) < distance(near, lam)
        return older, uncarried

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_m10_instance_starts(self, criterion, monkeypatch):
        solves = record_solves(monkeypatch)
        trace = gradient_search(shared_m10_problem(criterion))
        assert len(solves) > 8
        assert_work_is_the_sum(trace, solves)
        older, uncarried = self.assert_nearest_of_the_last_eight(solves)
        assert older >= 1 and uncarried == 0

    def test_multichain_solves_are_reused_uncarried(self, monkeypatch):
        # declared multichain, no solve has activation values or a greedy
        # interval, so each start is the raw values of the kept solve
        # nearest in lam
        force_multichain(monkeypatch)
        solves = record_solves(monkeypatch)
        trace = gradient_search(make_problem(fig1_mdps(1.0), 1, "average"))
        assert trace.stop_reason == "converged" and trace.solves_skipped == 0
        assert_work_is_the_sum(trace, solves)
        older, uncarried = self.assert_nearest_of_the_last_eight(solves)
        assert uncarried == len(solves) - 1 and older > 0

    @pytest.mark.parametrize(
        "criterion, work", [("discounted", (47, 23, 33)), ("average", (39, 19, 30))]
    )
    def test_m10_instance_work_is_pinned(self, criterion, work):
        # (iterates, solves skipped, policy-iteration rounds); from the last
        # solve's raw values the rounds were 60 and 51
        trace = gradient_search(shared_m10_problem(criterion))
        assert (len(trace.iterates), trace.solves_skipped, trace.pi_rounds) == work


class TestBisectionFinish:
    def test_stalled_average_search_ends_by_bisection(self):
        # f' jumps across zero at a breakpoint near lambda = 0.1513, and the
        # c/(k+1) steps shrink faster than the iterates approach it
        problem = random_m4_problem(1006, "average")
        trace = gradient_search(problem)
        assert trace.stop_reason == "bisection"
        assert len(trace.iterates) > problem.max_iters + 1
        lo, hi = trace.bracket
        assert 0.0 < hi - lo < problem.epsilon
        assert trace.lambda_star == lo and trace.solution.lam == lo
        tol = derivative_zero_tol(problem)
        d_lo, d_hi = (objective_derivative(problem, lam) for lam in (lo, hi))
        assert d_lo > tol and d_hi <= tol
        grid = np.linspace(lo, hi, 21)
        derivs = np.array([objective_derivative(problem, lam) for lam in grid])
        snapped = np.where(np.abs(derivs) <= tol, 0.0, derivs)
        assert np.all(np.diff(derivs) <= 1e-9)
        assert np.any(snapped[:-1] * snapped[1:] <= 0.0)

    def test_short_search_with_a_sign_change_bisects(self, monkeypatch):
        # three steps on fig1 reach f' < 0 (lambda = 1) from f' > 0 (lambda = 0)
        solves = record_solves(monkeypatch)
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", max_iters=3)
        trace = gradient_search(problem)
        assert trace.stop_reason == "bisection"
        assert_work_is_the_sum(trace, solves)
        lo, hi = trace.bracket
        assert hi - lo < problem.epsilon
        assert trace.lambda_star == lo and trace.solution.lam == lo
        tol = derivative_zero_tol(problem)
        assert objective_derivative(problem, lo) > tol and objective_derivative(problem, hi) <= tol


# lambda*.hex(), iteration count and SHA-256 of every table's index and value
# bytes of the rho = 1 two-bandit searches, as computed when relative value
# iteration still solved the multichain iterates (seeds 4, 7, 10, 12 and 15
# meet them)
RHO_ONE_PINNED = {
    0: ("0x1.8dedf56c49111p-2", 30, "bcf2d40be3f9cea5048800f040b8968aeef9730af50ce49ff473dc9f1029000e"),
    1: ("0x1.52234ffec5893p-2", 102, "cd2c925a76bac5981027563ba5837f078c623fa49615f653c2be7dd36f55b61b"),
    2: ("0x1.1111111111112p-4", 8, "e7eb4e172a46bc0e262c913f9450314cac9fe99af401523b8c66af966f9799e5"),
    3: ("0x1.1d31ff2d0c96ap-5", 6, "3f43341f32de82fdf768974aeb47e0558abde3a26e39111ead9b0bb06d61fd28"),
    4: ("0x1.36040237e5a2ap-2", 77, "7dcfbc744b664bdf47f4260cb6505c2f6f5a1118e1498b5f9366d6cd44d93764"),
    5: ("0x1.32d600999e086p-2", 6, "8fbcbe6f24697ae1ce552edb620ff03ca58364aa95ac3bd4618c3b96d59ccddf"),
    6: ("0x1.947bcc13c8973p-3", 6, "47b9860c50396faf6559f74a333bec04346e6bd304a84e2f63840ef83ed0d424"),
    7: ("0x1.6cb39336ed766p-2", 144, "4e3f01fe632f2ea9527577dd8af9da490a67ae0bbd77e735fb98de0e05bca18b"),
    8: ("0x1.022b30c1005f5p-2", 42, "b97872a7677293453c2acc3f172fd983ac359e57ff0a8c664175a5fc948cf3cf"),
    9: ("0x1.ef056eb780d7ap-3", 110, "6aac858d36c4e2d2a2cd45f789a17e01da7ac0acb61424281588132317690193"),
    10: ("0x1.a443dae40f4e7p-3", 191, "1222ed65ae6168105035e9190b197ce1ec53a6613d5de7841fed7513142909ae"),
    11: ("0x1.2f097a30c335ep-5", 14, "b08b295dba2ebacf87d168c0cf818201ec0613eeecbdcc45c043852e1346f54f"),
    12: ("0x1.c2b446708e162p-2", 56, "b73e13eaf23cd3791584dc97dfe1387be8784420a955e599fe735fd0be93a7de"),
    13: ("0x1.69767d86aba3fp-2", 16, "f07869ec051be184d66658c9dd9f26fe66c42f963d390fa9f71c353f327204b6"),
    14: ("0x1.c71c71c71c6edp-6", 11, "b4feebf97935b074cd4d606ad65c37125f90ea4ba043f3584d2adb02cc167af7"),
    15: ("0x1.3ce11c91c06f4p-2", 220, "528d5eaedb23a2315e74686c100ee78bf3742e9c6cd5cef6cda78dbe1d791082"),
    16: ("0x1.db492244e9956p-5", 12, "a99e1ad58f5bd046bef3e3567d7649895d55a484e9d11e335f46b4f6400c2309"),
    17: ("0x1.5b765c923e877p-2", 29, "aa62b00a4297d2a03726e47278e091f4af8c361cc0453ec5812cc4a99071397c"),
    18: ("0x1.3d050c8d14579p-3", 42, "5f1c61105ae7368abdc8ce1151d6428c19033b226cb9223cd4f6eaac25b9782c"),
    19: ("0x1.177ff92c167c3p-2", 45, "fea425ba10cdea3c8d42d3d2e5d7d9e066e07d8dbc788adb2a92dc26294c10fe"),
}


class TestPinnedRhoOneSearches:
    def test_lambda_star_iterations_and_tables_are_pinned(self, monkeypatch):
        steps = []
        real = solvers_module._multichain_step

        def spy(*args):
            steps.append(args)
            return real(*args)

        monkeypatch.setattr(solvers_module, "_multichain_step", spy)
        for seed, (lam_hex, iterations, digest) in RHO_ONE_PINNED.items():
            problem = make_problem(rho_one_pair(seed), 1, "average")
            trace = gradient_search(problem)
            sha = hashlib.sha256()
            for table in gain_index_tables(problem, trace):
                sha.update(table.indices.tobytes())
                sha.update(table.values.tobytes())
            assert (trace.lambda_star.hex(), len(trace.iterates), sha.hexdigest()) == (lam_hex, iterations, digest), seed
        assert steps


# lambda*.hex(), iteration count and SHA-256 of every table's index and value
# bytes of random M = 4 discounted searches, as computed when each discounted
# solve was warm-started from the last solve's policy rather than its values
DISCOUNTED_PINNED = {
    0.9: {
        1000: ("0x1.7a8a1413a057cp-6", 279, "f1c6e9c7de2a93b925318e7eedb21ff1f9390502772888b274ec7cd19a5ea896"),
        1001: ("0x1.1c23e51811771p-2", 26, "c72544937a8ca710419acc84a170d858756ee6c97279409659d93f2c6cb8e768"),
        1002: ("0x1.7833bceec3657p-4", 55, "d885a7a92e2bc7294c266c89756a33151c415b1edb651a24fadfd1c4b42b62fb"),
        1003: ("0x1.86aab0f4a28a6p-5", 7, "eb495ad912db4833a552a7bca983c94344b7c8e11123d10b2c43fa5c16b29aca"),
        1004: ("0x1.7f3180b2b955cp-3", 33, "e9ac6a1500eb3dea98036f6978d19a6f72b0317f592373e196e4f0a7cd604b30"),
        1005: ("0x1.04d5433077c9ap-3", 30, "1f9392ee718dc25bdf882cc422bebf987188889c50cb86253706ee02bbc98c61"),
        1006: ("0x1.87d90f772849ap-3", 36, "ab27424b22b36088622745733f74dfc336639468701f73829ddaa8704655f950"),
        1007: ("0x1.c71c71c71c750p-6", 11, "63595a1f5880bea0fb302da6e3eaf6eb74f73b6567bf7fc7edc42044dd997bab"),
        1008: ("0x1.4a40bd7bf0b6fp-3", 67, "90720f98e355d26c0f9288114cbddbcf71902917789e5dedaf82df6337a62206"),
        1009: ("0x1.6c16830afd53ep-3", 56, "e1b1dee4e0afc456e601900cfbd05e4e928fc6a3804352d30611cdd5f6f1c182"),
        1010: ("0x1.625f53fe2f624p-4", 49, "3a287a608e46995dba70b0c892e5303ccf3fede4d75453939c9b7fc1b95cbb1c"),
        1011: ("0x1.698747f793979p-3", 26, "12a1af6aff795d732c032127a12e744eb85eae04334ec5beb2d44d37d3663125"),
        1012: ("0x1.a1c03f9fd12f6p-3", 280, "d43649c4377890b09422d84d6670880e14e513d70b8effc85e1575dc04848398"),
        1013: ("0x1.42b14ec4255dap-3", 146, "3d7b02938395e22e728fe2c82b91f1ca8424987f157b5132079f2578ad3a1894"),
        1014: ("0x1.d0d44b74baf33p-4", 157, "0e05a2201861330c9bfa3ab9029dce6cbf5ecc2223a08b09892ca5db6528ca93"),
        1015: ("0x1.6ee0c5cefba53p-3", 36, "eda28f21a62510ef59807469fd3fa106aa6318aa3f9aca98e92ae44c33e9a03d"),
        1016: ("0x1.86de7c0f85e29p-4", 50, "52afc5f14ec60ff1400cb89e2a9656c7355c1bb99ad538dd1e71b531795917e8"),
        1017: ("0x1.6ea9e1e396b28p-3", 360, "60dddc34e78547fdf73276f5118c28736ab175c46b2b89b904a9234e00e37f60"),
        1018: ("0x1.8c484d1def9e9p-3", 217, "d51108af9899ee9911845fa55fcb630eea2e73cd17e49c7922ab34aabfbad852"),
        1019: ("0x1.6f5f331622906p-4", 17, "e4c103ff46ce45ad0fcd09dfde4599cba4cde4d5d5aff13d59eb64bc3dd0d86e"),
    },
    0.99: {
        1000: ("0x1.a50cc9d0af11ep-6", 195, "52c7ff58f56d45f47eaf9a4f984f613a73c4af1bf8e17e38200d643ee616832d"),
        1001: ("0x1.33de714522964p-2", 34, "514d699b0c5cae0303f7e7a9bb9c62725112534bc332879233378cfcee1b5925"),
        1002: ("0x1.a181507949d74p-4", 48, "679716c4323c087146b5bbfc532ca8ebd5528e0c3c3d4449320ff81e4227af0b"),
        1003: ("0x1.6be5a3361e104p-4", 6, "a3ac47531bb2d0ff272dc02ecb6c6dc585b38c6979985c02df76600803dafaef"),
        1004: ("0x1.a54f705e0d49ep-3", 61, "e24226fe688c504e4f16fd240d2dd390a0787b1f25fc5ad73e66820230e26939"),
        1005: ("0x1.2258543088428p-3", 63, "a33a0c36e352bdd5619c01d1e85ba778b8852810e9fb315ec49953a0b76e6551"),
        1006: ("0x1.b2debf322aedcp-3", 1013, "18bdb7b5cf33038a491461eaf62f052e2b54ab87c095cd7526c7b7cbd369279c"),
        1007: ("0x1.c71c71c71c908p-6", 11, "4a4a27699ef286a85d5d07aca0082f59a76884fd576382a0c1af8127b55e4c27"),
        1008: ("0x1.6d9dd50a47996p-3", 74, "f492c8196353fe9d276e1d50166126eb729b2c20c1c45ecd10b2d26f81d56087"),
        1009: ("0x1.92b68ca9de709p-3", 72, "6dd48e2ae7bbda3ba404c25ac6ee554920f999494131a4ee359dc9dce6c1166a"),
        1010: ("0x1.9345c86fff1fcp-4", 50, "aaa8a46d3e3b3e998f8de24323e2a7192e5dc90cb38ab876e4a16ded457bf77e"),
        1011: ("0x1.5f6765c8f5fb7p-3", 40, "4c67a005cf9e6d528a518106f7591b22a880554db027ad626aab187dd915b6c8"),
        1012: ("0x1.cff6b63b4451bp-3", 80, "4c102bb3a9335abb39695284f5c48762997ab880d428f60935f3bcc6cc0fc5be"),
        1013: ("0x1.6a3ba68c70baep-3", 69, "5aee7cd9eb19dfc823c1400465a08a9fefe562839826bc7197c2c878ed417d52"),
        1014: ("0x1.030d47277e664p-3", 67, "7cae4df7f63083ea471e1981dfa4a366902852f5c8f9bb70625f460793c64b25"),
        1015: ("0x1.83193139625e5p-3", 36, "a190dca3134a5366d858c368eaa2c1f4ef66897876811141069f1b2bb6a4f3c2"),
        1016: ("0x1.aca3ae8da9293p-4", 42, "2dd2cbfae19d4d8fd4e512f0f972ad6901878d44d68aeecb5ea1992beb1a9e38"),
        1017: ("0x1.762010766100ep-3", 38, "aac78d04897b33995da894ca1b2e23441016a45a6e6c1e97f399d05d217c401f"),
        1018: ("0x1.be3249d0c16b8p-3", 146, "a5d0fa25316dcbad3ad6f802fcd7ca346e07625fabba31a6704e6746122726ad"),
        1019: ("0x1.8e5ac2480f91ap-4", 20, "864a03c9fb286a6b307b867c0a02f67ef7be0ed14e5b3968dbc989aa50668bfa"),
    },
}


class TestPinnedDiscountedSearches:
    @pytest.mark.parametrize("beta", sorted(DISCOUNTED_PINNED))
    def test_lambda_star_iterations_and_tables_are_pinned(self, beta):
        for seed, (lam_hex, iterations, digest) in DISCOUNTED_PINNED[beta].items():
            problem = random_m4_problem(seed, "discounted", beta=beta)
            trace = gradient_search(problem)
            sha = hashlib.sha256()
            for table in gain_index_tables(problem, trace):
                sha.update(table.indices.tobytes())
                sha.update(table.values.tobytes())
            assert (trace.lambda_star.hex(), len(trace.iterates), sha.hexdigest()) == (lam_hex, iterations, digest), seed
