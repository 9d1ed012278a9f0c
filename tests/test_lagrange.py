import hashlib
from dataclasses import replace

import numpy as np
import pytest

from uoisched import (
    BanditSpec,
    MaxItersExceeded,
    build_truncated,
    choose_truncation,
    derivative_average,
    derivative_discounted,
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
from uoisched.lagrange import _derivative, _solve_all, derivative_zero_tol
from uoisched.solvers import greedy_interval
from conftest import FIG1, force_multichain, induced_transition, mixed_mdps, random_bandit, rho_one_pair


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
        assert derivative_discounted(mdp, actions, 0) == pytest.approx(10.0, abs=1e-10)

    def test_all_passive_is_zero(self):
        (mdp,) = fig1_mdps(0.9, count=1)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        assert derivative_discounted(mdp, actions, 0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(314)
        bandit = random_bandit(rng, 2, "mc", rho=0.8)
        mdp = build_truncated(bandit, 10, 0.9)
        actions = rng.integers(0, 2, mdp.n_states).astype(np.int8)
        exact = derivative_discounted(mdp, actions, 0)
        horizon = int(np.ceil(np.log(1e-6 * (1 - 0.9)) / np.log(0.9)))
        est, se = monte_carlo_discounted_activations(mdp, actions, 0, 100_000, horizon, 4000)
        assert abs(exact - est) <= 3 * se


class TestDerivativeAverage:
    def test_all_active_is_one(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        assert derivative_average(mdp, np.ones(mdp.n_states, dtype=np.int8)) == pytest.approx(1.0, abs=1e-12)

    def test_all_passive_is_zero(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        assert derivative_average(mdp, np.zeros(mdp.n_states, dtype=np.int8)) == pytest.approx(0.0, abs=1e-12)

    def test_active_only_at_omega_matches_stationary_mass(self):
        (mdp,) = fig1_mdps(1.0, count=1)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        actions[0] = 1  # transmit only from the equilibrium belief, rho = 1
        rate = derivative_average(mdp, actions)
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
        assert (trace.pi_rounds, trace.solves_skipped) == (22, 26)
        # 7 iterates solved, 26 skipped, and lambda* (skipped) solved once more
        assert len(solves) == 8 and solves[-1] == trace.lambda_star
        assert len(solves) + trace.solves_skipped == len(trace.iterates) + 1
        assert trace.policy_evaluations == trace.pi_rounds


def count_solves(monkeypatch):
    """Record the multiplier of every batch solve the search makes."""
    solves = []
    real = lagrange_module._solve_all

    def counted(problem, lam, *args, **kwargs):
        solves.append(lam)
        return real(problem, lam, *args, **kwargs)

    monkeypatch.setattr(lagrange_module, "_solve_all", counted)
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
            derivs.append(derivative_discounted(mdp, pol, s))
            values.append(pol.values[s])
        expect = sum(derivs) - problem.m / (1 - 0.9)
        assert objective_derivative(problem, lam) == pytest.approx(expect, rel=1e-12, abs=1e-11)
        expect_value = sum(values) - problem.m * lam / (1 - 0.9)
        assert objective_value(problem, lam) == pytest.approx(expect_value, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.15, 0.4, 1.5])
    def test_average_matches_loop_of_single_solves(self, lam):
        problem = mixed_problem("average", 1.0)
        pols = [solve_average(mdp, lam) for mdp in problem.mdps]
        expect = sum(derivative_average(mdp, pol) for mdp, pol in zip(problem.mdps, pols)) - problem.m
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

    def test_warm_and_cold_agree(self):
        rng = np.random.default_rng(5150)
        mdps = [build_truncated(random_bandit(rng, 2, f"b{i}"), 12, 0.9) for i in range(2)]
        problem = make_problem(mdps, 1, "discounted")
        warm = gradient_search(problem, warm_start=True)
        cold = gradient_search(problem, warm_start=False)
        assert abs(warm.lambda_star - cold.lambda_star) < problem.epsilon

    # a step size so small that three iterates never leave f' > 0: no
    # bracket to bisect
    def test_max_iters_carries_trace(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", stepsize_c=1e-6, max_iters=3)
        with pytest.raises(MaxItersExceeded) as err:
            gradient_search(problem)
        assert err.value.trace.stop_reason == "max_iters"
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
        cold = _solve_all(problem, trace.lambda_star, None)
        assert np.array_equal(trace.solution.actions, cold.actions)
        assert np.allclose(trace.solution.values, cold.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_later_warm_started_solves_leave_it_unchanged(self, criterion):
        problem = self._problem(criterion)
        trace = gradient_search(problem)
        sol = trace.solution
        before = {k: getattr(sol, k).copy() for k in ("actions", "values", "gains", "usage")}
        warm = {criterion: sol.actions if criterion == "discounted" else sol.values}
        for lam in (0.0, 2.0 * trace.lambda_star + 0.1, trace.lambda_star):
            objective_derivative(problem, lam, warm)
        for key, array in before.items():
            assert np.array_equal(getattr(sol, key), array), key

    def test_not_in_repr_or_equality(self):
        trace = gradient_search(self._problem("discounted"))
        assert "solution" not in repr(trace)
        assert trace == replace(trace, solution=None)


def random_m4_problem(seed, criterion, max_iters=5000):
    """Four random bandits truncated at eta 1e-6, m = 2."""
    rng = np.random.default_rng(seed)
    bandits = [random_bandit(rng, rng.integers(2, 5), f"b{i}") for i in range(4)]
    beta = 0.9 if criterion == "discounted" else 1.0
    mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits]
    return make_problem(mdps, 2, criterion, max_iters=max_iters)


def reference_search(problem):
    """The gradient search with one solve per iterate, sharing one warm dict:
    (iterates, lambda*, bracket, solution), the last three None when
    max_iters runs out."""
    tol = derivative_zero_tol(problem)
    warm, lam = {}, 0.0
    sol = _solve_all(problem, lam, warm)
    iterates = [(lam, _derivative(problem, sol))]
    for k in range(problem.max_iters):
        deriv = iterates[-1][1]
        lam_next = max(lam + problem.stepsize_c / (k + 1) * deriv, 0.0)
        sol_next = _solve_all(problem, lam_next, warm)
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
            sol = _solve_all(problem, lam, None)
            interval = greedy_interval(sol)
            assert interval is not None
            lo, hi = interval
            assert lo < lam < hi
            ends = [max(lo, 0.0), min(hi, lam + 10.0)]
            for probe in np.linspace(*ends, 7):
                for warm in (None, {criterion: sol.actions if criterion == "discounted" else sol.values}):
                    again = _solve_all(problem, float(probe), warm)
                    assert np.array_equal(again.actions, sol.actions), (lam, probe)
                    assert _derivative(problem, again) == _derivative(problem, sol)

    def test_interval_ends_at_a_policy_change(self):
        problem = make_problem(fig1_mdps(0.9), 1, "discounted")
        sol = _solve_all(problem, 0.2, None)
        lo, hi = greedy_interval(sol)
        assert not np.array_equal(_solve_all(problem, hi + 1e-4, None).actions, sol.actions)
        assert not np.array_equal(_solve_all(problem, lo - 1e-4, None).actions, sol.actions)

    def test_no_interval_for_a_multichain_final_policy(self, monkeypatch):
        problem = make_problem(fig1_mdps(1.0), 1, "average")
        unichain = _solve_all(problem, 0.3, None)
        # declared multichain, every iterate takes the multichain evaluation
        # and improvement step, and the solve ends at the same policy
        force_multichain(monkeypatch)
        sol = _solve_all(problem, 0.3, None)
        assert np.array_equal(sol.actions, unichain.actions)
        assert sol.activations is None and greedy_interval(sol) is None


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

    def test_short_search_with_a_sign_change_bisects(self):
        # three steps on fig1 reach f' < 0 (lambda = 1) from f' > 0 (lambda = 0)
        problem = make_problem(fig1_mdps(0.9), 1, "discounted", max_iters=3)
        trace = gradient_search(problem)
        assert trace.stop_reason == "bisection"
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
