from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.csgraph as csgraph

from uoisched import (
    BanditSpec,
    NoConvergence,
    average_policy_evaluation,
    build_truncated,
    choose_truncation,
    entropy,
    policy_evaluation_discounted,
    policy_iteration_discounted,
    solve_average,
    transition_matrices,
    validate_chain,
)
import uoisched.solvers as solvers_module
from uoisched.solvers import (
    BanditBatch,
    SolveCounts,
    _evaluate,
    _greedy,
    _q_values,
    solve_batch,
)

from conftest import (
    FIG1,
    active_passive,
    derivative,
    force_multichain,
    induced_transition,
    mixed_mdps,
    random_bandit,
    recurrent_class_count,
    rho_one_pair,
    value_iteration_discounted,
)


def fig1_mdp(beta=0.9, rho=1.0, L=None):
    # structural claims (all-active at lam = 0) hold on the exact belief MDP;
    # the truncation must be resolved enough (eta small) not to perturb the
    # activation margin at the age-cap states, so L defaults to the 1e-6 depth
    bandit = BanditSpec(validate_chain(FIG1), rho, "fig1")
    if L is None:
        L, _ = choose_truncation(bandit, 1e-6)
    return build_truncated(bandit, L, beta)


def degenerate_mdp(beta=0.9, L=2):
    # all columns equal the equilibrium: every belief state is the same point,
    # so the model behaves like a single-state MDP with cost H(omega) = 1
    chain = validate_chain([[0.5, 0.5], [0.5, 0.5]])
    return build_truncated(BanditSpec(chain, 1.0, "flat"), L, beta)


def all_passive_warm_start(mdp):
    """Values whose greedy policy at rho = 1 and a zero charge is all
    passive: 1 at the reset states, which only the active action reaches."""
    w = np.zeros(mdp.n_states)
    w[mdp.reset_states] = 1.0
    return w


def find_all_passive_lambda(mdp, solver, max_doublings=60):
    lam = 1.0
    for _ in range(max_doublings):
        pol = solver(mdp, lam)
        if pol.actions.max() == 0:
            return lam
        lam *= 2.0
    raise AssertionError("no all-passive lambda found within 60 doublings")


class TestValueIteration:
    def test_zero_charge_is_all_active(self):
        pol = value_iteration_discounted(fig1_mdp(), 0.0, tol=1e-9)
        assert pol.actions.min() == 1

    def test_degenerate_chain_geometric_series(self):
        beta = 0.9
        pol = value_iteration_discounted(degenerate_mdp(beta), 0.0, tol=1e-10)
        assert np.allclose(pol.values, 1.0 / (1.0 - beta), atol=1e-8)

    def test_huge_charge_is_all_passive(self):
        mdp = fig1_mdp()
        lam = find_all_passive_lambda(mdp, lambda m, l: value_iteration_discounted(m, l, 1e-8))
        pol = value_iteration_discounted(mdp, lam, 1e-8)
        assert pol.actions.max() == 0

    def test_bellman_residual_within_tolerance(self):
        mdp = fig1_mdp()
        tol = 1e-7
        pol = value_iteration_discounted(mdp, 0.05, tol=tol)
        beta = mdp.discount
        passive, active = transition_matrices(mdp)
        qa = mdp.costs_passive + 0.05 + beta * (active @ pol.values)
        qp = mdp.costs_passive + beta * (passive @ pol.values)
        residual = np.max(np.abs(np.minimum(qa, qp) - pol.values))
        assert residual <= tol * (1 - beta) / (2 * beta)

    def test_beta_zero_is_myopic(self):
        mdp = fig1_mdp(beta=0.0)
        pol = value_iteration_discounted(mdp, 0.5, tol=1e-12)
        assert np.allclose(pol.values, mdp.costs_passive)  # min(lam, 0) = 0
        assert pol.actions.max() == 0


class TestPolicyIteration:
    def test_warm_start_at_optimum_converges_immediately(self):
        mdp = fig1_mdp()
        opt = policy_iteration_discounted(mdp, 0.07)
        counts = SolveCounts()
        again = solve_batch(BanditBatch([mdp]), 0.07, opt.values, counts)
        assert np.array_equal(again.actions, opt.actions)
        assert counts.pi_rounds == 1

    def test_all_passive_init_reaches_all_active_at_zero_charge(self):
        mdp = fig1_mdp()
        warm = all_passive_warm_start(mdp)
        assert _greedy(*_q_values(BanditBatch([mdp]), 0.0, warm, mdp.discount)).max() == 0
        pol = policy_iteration_discounted(mdp, 0.0, warm)
        assert pol.actions.min() == 1

    def test_agrees_with_value_iteration(self):
        rng = np.random.default_rng(99)
        bandit = random_bandit(rng, 2, "r")
        mdp = build_truncated(bandit, 8, 0.9)
        for lam in (0.0, 0.05, 0.3):
            vi = value_iteration_discounted(mdp, lam, tol=1e-10)
            pi = policy_iteration_discounted(mdp, lam)
            assert np.max(np.abs(vi.values - pi.values)) < 1e-8


class TestPolicyEvaluation:
    def test_zero_cost(self):
        mdp = fig1_mdp()
        actions = np.ones(mdp.n_states, dtype=np.int8)
        assert np.allclose(policy_evaluation_discounted(mdp, actions, np.zeros(mdp.n_states)), 0.0)

    def test_constant_cost(self):
        mdp = fig1_mdp()
        rng = np.random.default_rng(5)
        actions = rng.integers(0, 2, mdp.n_states).astype(np.int8)
        v = policy_evaluation_discounted(mdp, actions, np.ones(mdp.n_states))
        assert np.allclose(v, 1.0 / (1.0 - mdp.discount), atol=1e-10)

    def test_action_indicator_of_all_active_hits_derivative_cap(self):
        mdp = fig1_mdp()
        actions = np.ones(mdp.n_states, dtype=np.int8)
        v = policy_evaluation_discounted(mdp, actions, actions.astype(float))
        assert np.allclose(v, 1.0 / (1.0 - mdp.discount), atol=1e-10)

    def test_residual(self):
        mdp = fig1_mdp()
        rng = np.random.default_rng(1)
        actions = rng.integers(0, 2, mdp.n_states).astype(np.int8)
        cost = rng.uniform(size=mdp.n_states)
        v = policy_evaluation_discounted(mdp, actions, cost)
        p = induced_transition(mdp, actions)
        residual = np.max(np.abs(v - mdp.discount * (p @ v) - cost))
        assert residual <= 1e-10


class TestSolveAverage:
    def test_zero_charge_all_active(self):
        mdp = fig1_mdp(beta=1.0)
        pol = solve_average(mdp, 0.0)
        assert pol.actions.min() == 1
        assert pol.values[mdp.state_index(1, 1)] == 0.0  # anchor

    def test_constant_cost_under_forced_passive(self):
        mdp = degenerate_mdp(beta=1.0)
        lam = find_all_passive_lambda(mdp, solve_average)
        pol = solve_average(mdp, lam)
        assert pol.actions.max() == 0
        assert pol.gain == pytest.approx(entropy([0.5, 0.5]), abs=1e-9)

    def test_gain_independent_of_start_state(self):
        rng = np.random.default_rng(21)
        bandit = random_bandit(rng, 3, "a", rho=0.8)
        mdp = build_truncated(bandit, 8, 1.0)
        sol = solve_average(mdp, 0.1)
        # vanishing-discount oracle: (1-beta) V_beta(s) -> g for every start s
        mdp_near1 = build_truncated(bandit, 8, 0.99999)
        v = policy_iteration_discounted(mdp_near1, 0.1).values
        assert np.max(np.abs((1 - 0.99999) * v - sol.gain)) < 1e-3
        p = induced_transition(mdp, sol.actions)
        # stationary-distribution oracle for the induced chain
        n = mdp.n_states
        a = np.vstack([p.toarray().T - np.eye(n), np.ones(n)])
        pi_stat, *_ = np.linalg.lstsq(a, np.concatenate([np.zeros(n), [1.0]]), rcond=None)
        cost = mdp.costs_passive + 0.1 * sol.actions
        assert float(pi_stat @ cost) == pytest.approx(sol.gain, abs=1e-9)

    def test_bellman_residual_span(self):
        mdp = fig1_mdp(beta=1.0)
        sol = solve_average(mdp, 0.08)
        passive, active = transition_matrices(mdp)
        qa = mdp.costs_passive + 0.08 + (active @ sol.values)
        qp = mdp.costs_passive + (passive @ sol.values)
        d = np.minimum(qa, qp) - sol.values - sol.gain
        assert d.max() - d.min() <= 1e-8


class TestAveragePolicyEvaluation:
    def test_constant_cost(self):
        mdp = fig1_mdp(beta=1.0)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        gains, z = average_policy_evaluation(mdp, actions, np.ones(mdp.n_states))
        assert np.allclose(gains, 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(z, 0.0, atol=1e-9)

    def test_all_passive_activation_rate_is_zero(self):
        mdp = fig1_mdp(beta=1.0)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        rates, _ = average_policy_evaluation(mdp, actions, actions.astype(float))
        assert np.allclose(rates, 0.0, rtol=0.0, atol=1e-12)

    def test_all_active_activation_rate_is_one(self):
        mdp = fig1_mdp(beta=1.0)
        actions = np.ones(mdp.n_states, dtype=np.int8)
        rates, _ = average_policy_evaluation(mdp, actions, actions.astype(float))
        assert np.allclose(rates, 1.0, rtol=0.0, atol=1e-12)

    def test_multichain_policy_detected(self):
        # rho=1, active only on the reset states, passive at omega: the reset
        # block and the omega sink are two recurrent classes, each with its
        # own gain; the aging states drain into omega
        mdp = fig1_mdp(beta=1.0, rho=1.0, L=4)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        actions[mdp.reset_states] = 1
        assert not BanditBatch([mdp]).unichain(actions)[0][0]
        resets = np.isin(np.arange(mdp.n_states), mdp.reset_states)
        rates, _ = average_policy_evaluation(mdp, actions, actions.astype(float))
        assert np.all(rates[~resets] == 0.0)
        assert np.allclose(rates[resets], 1.0, rtol=0.0, atol=1e-12)
        assert np.array_equal([derivative(mdp, actions, s) for s in range(mdp.n_states)], rates)
        gains, _ = average_policy_evaluation(mdp, actions, mdp.costs_passive)
        # the reset class observes the source's own chain, so it spends the
        # fraction omega_k of its time at T_k^1
        omega = mdp.states[0]
        reset_gain = float(omega @ mdp.costs_passive[mdp.reset_states])
        assert np.allclose(gains[resets], reset_gain, rtol=0.0, atol=1e-12)
        assert np.allclose(gains[~resets], entropy(omega), rtol=0.0, atol=1e-12)
        assert reset_gain < entropy(omega)


class TestActivePassiveValues:
    def test_all_active_at_zero_charge(self):
        mdp = fig1_mdp()
        pol = policy_iteration_discounted(mdp, 0.0)
        a, r = active_passive(mdp, pol.values, 0.0)
        for s in range(mdp.n_states):
            assert a[s] <= r[s] + 1e-9

    def test_difference_matches_gain_index_identity(self):
        # r - a = beta*W - lam for every state
        mdp = fig1_mdp()
        lam = 0.06
        pol = policy_iteration_discounted(mdp, lam)
        v = pol.values
        rho, beta = mdp.bandit.success_prob, mdp.discount
        a, r = active_passive(mdp, v, lam)
        for s in range(mdp.n_states):
            w = rho * (v[mdp.passive_next[s]] - mdp.states[s] @ v[mdp.reset_states])
            assert r[s] - a[s] == pytest.approx(beta * w - lam, abs=1e-8)

    def test_myopic_limit(self):
        mdp = fig1_mdp(beta=0.0, rho=1.0)
        v = value_iteration_discounted(mdp, 0.7, tol=1e-12).values
        a, r = active_passive(mdp, v, 0.7)
        assert a[0] == pytest.approx(0.7, abs=1e-15)
        assert r[0] == 0.0


class TestOneCriterionPerSolver:
    """Each single-bandit solver serves one criterion and rejects an MDP of
    the other, which the batch would otherwise solve under its own."""

    @pytest.mark.parametrize(
        "call, beta",
        [
            (lambda mdp: policy_iteration_discounted(mdp, 0.1), 1.0),
            (lambda mdp: value_iteration_discounted(mdp, 0.1), 1.0),
            (lambda mdp: policy_evaluation_discounted(mdp, np.ones(mdp.n_states, np.int8), mdp.costs_passive), 1.0),
            (lambda mdp: solve_average(mdp, 0.1), 0.9),
            (lambda mdp: average_policy_evaluation(mdp, np.ones(mdp.n_states, np.int8), mdp.costs_passive), 0.9),
        ],
        ids=[
            "policy_iteration_discounted", "value_iteration_discounted", "policy_evaluation_discounted",
            "solve_average", "average_policy_evaluation",
        ],
    )
    def test_mdp_of_the_other_criterion_is_rejected(self, call, beta):
        with pytest.raises(ValueError, match="requires discount"):
            call(fig1_mdp(beta=beta, L=6))


class TestTieAtABreakpoint:
    """Policy iteration keeps a state's action where qa and qp tie within
    ACTIVE_TIE_TOL.  At this breakpoint of the dual, flipping tied states
    cycled through three policies of equal gain until NoConvergence."""

    @staticmethod
    def _bandit():
        rng = np.random.default_rng(5)
        for _ in range(3):
            bandits = [
                random_bandit(rng, int(rng.integers(2, 5)), f"c{k}", rho=float(rng.choice([0.6, 0.8, 1.0])))
                for k in range(3)
            ]
        return bandits[0]

    @pytest.mark.parametrize("shift", [0.0, -1e-9, 1e-9])
    def test_solve_at_the_breakpoint_terminates(self, shift):
        bandit = self._bandit()
        assert (bandit.chain.n_states, bandit.success_prob) == (2, 1.0)
        mdp = build_truncated(bandit, 20, 1.0)
        sol = solve_batch(BanditBatch([mdp]), 0.32286361620113463 * (1.0 + shift))
        assert sol.gains[0] == pytest.approx(0.964157966574381, rel=1e-12)


class TestLambdaMonotonicity:
    def test_discounted_values_monotone_concave_in_lambda(self):
        rng = np.random.default_rng(2024)
        for _ in range(2):
            bandit = random_bandit(rng, 2, "m")
            mdp = build_truncated(bandit, 8, 0.9)
            b_h = 1.0
            grid = np.linspace(0.0, 2 * b_h / (1 - 0.9), 15)
            values = np.array([policy_iteration_discounted(mdp, lam).values for lam in grid])
            diffs = np.diff(values, axis=0)
            assert diffs.min() >= -1e-9
            slopes = diffs / np.diff(grid)[:, None]
            assert slopes.max() <= 1.0 / (1 - 0.9) + 1e-6
            assert np.all(np.diff(slopes, axis=0) <= 1e-6)

    def test_average_gain_monotone_concave_in_lambda(self):
        rng = np.random.default_rng(2025)
        bandit = random_bandit(rng, 2, "m")
        mdp = build_truncated(bandit, 8, 1.0)
        grid = np.linspace(0.0, 2.0, 15)
        gains = np.array([solve_average(mdp, lam).gain for lam in grid])
        diffs = np.diff(gains)
        assert diffs.min() >= -1e-9
        slopes = diffs / np.diff(grid)
        assert slopes.max() <= 1.0 + 1e-6
        assert np.all(np.diff(slopes) <= 1e-6)


def random_policy_case(seed, n, L, rho, discount):
    """A random bandit's L-truncation, a random policy and a random cost."""
    rng = np.random.default_rng(seed)
    mdp = build_truncated(random_bandit(rng, n, "h", rho=rho), L, discount)
    density = rng.choice([0.1, 0.5, 0.9])
    actions = (rng.uniform(size=mdp.n_states) < density).astype(np.int8)
    return mdp, actions, rng.uniform(size=mdp.n_states)


def dense_average_evaluation(mdp, actions, cost):
    """The anchored (g, Z) system solved densely over all states."""
    n = mdp.n_states
    anchor = int(mdp.reset_states[0])
    a = np.eye(n) - induced_transition(mdp, actions).toarray()
    a = np.hstack([np.delete(a, anchor, axis=1), np.ones((n, 1))])
    x = np.linalg.solve(a, cost)
    return float(x[-1]), np.insert(x[:-1], anchor, 0.0)


CASES = dict(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(2, 4),
    L=st.integers(1, 12),
    rho=st.sampled_from([0.7, 1.0]),
)


class TestStructuredEvaluation:
    """The structured backward pass against dense solves over all states."""

    @settings(max_examples=40, deadline=None)
    @given(**CASES)
    def test_discounted_values_match_dense_solve(self, seed, n, L, rho):
        mdp, actions, cost = random_policy_case(seed, n, L, rho, 0.9)
        p = induced_transition(mdp, actions).toarray()
        ref = np.linalg.solve(np.eye(mdp.n_states) - 0.9 * p, cost)
        v = policy_evaluation_discounted(mdp, actions, cost)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(**CASES)
    def test_average_gain_and_values_match_dense_solve(self, seed, n, L, rho):
        mdp, actions, cost = random_policy_case(seed, n, L, rho, 1.0)
        if recurrent_class_count(induced_transition(mdp, actions)) != 1:
            return
        g_ref, z_ref = dense_average_evaluation(mdp, actions, cost)
        gains, z = average_policy_evaluation(mdp, actions, cost)
        scale = np.max(np.abs(z_ref))
        assert np.max(np.abs(gains - g_ref)) <= 1e-9 * scale
        assert np.max(np.abs(z - z_ref)) <= 1e-9 * scale
        assert z[mdp.reset_states[0]] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(**CASES)
    def test_unichain_decision_matches_recurrent_class_count(self, seed, n, L, rho):
        mdp, actions, cost = random_policy_case(seed, n, L, rho, 1.0)
        multichain = recurrent_class_count(induced_transition(mdp, actions)) != 1
        unichain, _ = BanditBatch([mdp]).unichain(actions)
        assert bool(unichain[0]) is not multichain

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rhos=st.lists(st.sampled_from([0.5, 0.7, 0.95]), min_size=1, max_size=4))
    def test_every_policy_unichain_without_rho_one(self, seed, rhos):
        rng = np.random.default_rng(seed)
        bandits = [random_bandit(rng, int(rng.integers(2, 5)), f"h{i}", rho=rho) for i, rho in enumerate(rhos)]
        mdps = [build_truncated(bandit, int(rng.integers(1, 13)), 1.0) for bandit in bandits]
        batch = BanditBatch(mdps)
        actions = (rng.uniform(size=batch.n_states) < rng.choice([0.1, 0.5, 0.9])).astype(np.int8)
        unichain, reach = batch.unichain(actions)
        assert unichain.all() and reach is None
        # the skipped reach computation agrees, and so does the chain itself
        assert batch.reach(actions).all(axis=1).any(axis=1).all()
        for b, mdp in enumerate(mdps):
            assert recurrent_class_count(induced_transition(mdp, batch.split(actions, b))) == 1

    def test_batch_matches_batch_of_one_values(self):
        rng = np.random.default_rng(8)
        mdps = [
            build_truncated(random_bandit(rng, n, f"b{i}"), L, 0.9)
            for i, (n, L) in enumerate([(2, 1), (4, 9), (3, 37), (2, 5)])
        ]
        actions = [rng.integers(0, 2, mdp.n_states).astype(np.int8) for mdp in mdps]
        costs = [rng.uniform(size=mdp.n_states) for mdp in mdps]
        batch = BanditBatch(mdps)
        values, _, _ = _evaluate(batch, np.concatenate(actions), np.concatenate(costs)[:, None])
        for b, mdp in enumerate(mdps):
            alone = policy_evaluation_discounted(mdp, actions[b], costs[b])
            assert np.max(np.abs(batch.split(values[:, 0], b) - alone)) <= 1e-13 * np.max(np.abs(alone))


class TestUnichainCheck:
    def test_states_after_a_cut_add_no_edges(self):
        # sparse chain 1 -> 2 -> 3 -> {1, 2}; at rho = 1 an active state is
        # never left by ageing.  Chains 2 and 3 reset only into {2, 3}, chain
        # 1 ages into the passive omega: two recurrent classes.  The active
        # state at age 3 of chain 3 (support {1, 2, 3}) is never reached.
        chain = validate_chain([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])
        mdp = build_truncated(BanditSpec(chain, 1.0, "sparse"), 4, 1.0)
        actions = np.zeros(mdp.n_states, dtype=np.int8)
        for k, n in ((2, 1), (3, 2), (3, 3)):
            actions[mdp.state_index(k, n)] = 1
        assert recurrent_class_count(induced_transition(mdp, actions)) == 2
        assert not BanditBatch([mdp]).unichain(actions)[0][0]
        # once omega is active, everything drains into the reset classes
        actions[0] = 1
        assert recurrent_class_count(induced_transition(mdp, actions)) == 1
        assert BanditBatch([mdp]).unichain(actions)[0][0]


def multichain_warm_start(mdp):
    """A Z whose greedy policy at rho = 1 and a small charge is active only
    at age 1: the reset states then only reach each other and omega, passive,
    is absorbing, so policy iteration's first iterate is multichain."""
    z = np.zeros(mdp.n_states)
    z[mdp.reset_states + 1] = 1.0  # age 2 of every chain
    return z


class TestBatchedAverageSolve:
    def test_multichain_warm_start_is_multichain(self):
        mdp = fig1_mdp(beta=1.0)
        batch = BanditBatch([mdp])
        first = _greedy(*_q_values(batch, 0.05, multichain_warm_start(mdp), 1.0))
        assert np.array_equal(np.flatnonzero(first), mdp.reset_states)
        assert not batch.unichain(first)[0][0]

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    @pytest.mark.parametrize("length", [-1, 1], ids=["short", "long"])
    def test_warm_values_of_another_length_are_rejected(self, length, criterion):
        mdp = fig1_mdp(beta=0.9 if criterion == "discounted" else 1.0, L=10)
        with pytest.raises(ValueError, match="warm values length does not match state count"):
            solve_batch(BanditBatch([mdp]), 0.05, np.zeros(mdp.n_states + length))

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_negative_charge_is_rejected(self, criterion):
        mdp = fig1_mdp(beta=0.9 if criterion == "discounted" else 1.0, L=10)
        with pytest.raises(ValueError, match="lam must be >= 0"):
            solve_batch(BanditBatch([mdp]), -1e-3)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_still_changing_at_the_round_cap_raises(self, criterion, monkeypatch):
        # from all passive (discounted) or the multichain warm start
        # (average), fig1 needs more than one round at these charges
        mdp = fig1_mdp(beta=0.9 if criterion == "discounted" else 1.0)
        if criterion == "discounted":
            solve = partial(policy_iteration_discounted, mdp, 0.0, all_passive_warm_start(mdp))
        else:
            solve = partial(solve_average, mdp, 0.05, multichain_warm_start(mdp))
        solve()
        monkeypatch.setattr(solvers_module, "_PI_ROUNDS", 1)
        with pytest.raises(NoConvergence, match=r"after 1 rounds in bandits \[0\]"):
            solve()


def relative_value_iteration(batch, lam, w, tol=1e-9, max_sweeps=200_000):
    """Damped relative value iteration in place on the flat iterate w, with
    span stopping per bandit; returns the last (qa, qp).

    A bandit whose span is below tol is frozen, so each stops at the sweep
    it would stop at alone.  The damping (aperiodicity transform, factor
    1/2) leaves the optimal gain and policy unchanged and makes the sweep
    converge on unichain models.  Z is kept anchored at T_1^1.
    """
    starts = batch.offsets[:-1]
    anchor_of = batch.reset_ids[starts, 0][batch.bandit_of]
    for _ in range(max_sweeps):
        qa, qp = _q_values(batch, lam, w, 1.0)
        tw = np.minimum(qa, qp)
        d = tw - w
        sweeping = np.maximum.reduceat(d, starts) - np.minimum.reduceat(d, starts) > tol
        if not sweeping.any():
            return qa, qp
        w_next = 0.5 * (w + tw)
        w_next -= w_next[anchor_of]
        np.copyto(w, w_next, where=sweeping[batch.bandit_of])
    raise AssertionError(f"relative value iteration span not below {tol} in {max_sweeps} sweeps")


def rvi_reference(batch, lam, warm=None):
    """The average solve without policy iteration: relative value iteration
    from the values `warm`, then the greedy policy, then its exact evaluation."""
    w = np.zeros(batch.n_states) if warm is None else np.array(warm, dtype=float)
    actions = _greedy(*relative_value_iteration(batch, lam, w))
    costs = np.stack([batch.costs + lam * actions, actions], axis=1)
    values, gains, unichain = _evaluate(batch, actions, costs)
    assert unichain.all()
    start = gains[batch.initial_ids]
    return actions, values[:, 0], start[:, 0], start[:, 1]


LAMBDA_GRID = np.linspace(0.0, 1.2, 13)


def warm_sweep(batch, counts=None):
    """Solve along LAMBDA_GRID, each solve warm-started from the last Z as
    the gradient search does; yields (lam, warm start, solution)."""
    z = None
    for lam in LAMBDA_GRID:
        sol = solve_batch(batch, lam, z, counts)
        yield lam, z, sol
        z = sol.values


def spy_on_multichain_steps(monkeypatch):
    """Record the (B,) multichain mask of every multichain improvement step."""
    masks = []
    real = solvers_module._multichain_step

    def spy(batch, actions, greedy, gains, multi):
        masks.append(multi.tolist())
        return real(batch, actions, greedy, gains, multi)

    monkeypatch.setattr(solvers_module, "_multichain_step", spy)
    return masks


class TestAveragePolicyIteration:
    """Policy iteration against an RVI solve."""

    @pytest.mark.parametrize("mdps", [mixed_mdps(1.0), rho_one_pair(4), rho_one_pair(9)], ids=["mixed", "rho1-4", "rho1-9"])
    def test_matches_rvi_reference_and_is_greedy_in_its_own_values(self, mdps):
        batch = BanditBatch(mdps)
        for lam, z, sol in warm_sweep(batch):
            actions, values, gains, usage = rvi_reference(batch, lam, z)
            assert np.array_equal(sol.actions, actions)
            assert np.array_equal(sol.values, values)
            assert np.array_equal(sol.gains, gains)
            assert np.array_equal(sol.usage, usage)
            assert np.array_equal(_greedy(*_q_values(batch, lam, sol.values, 1.0)), sol.actions)

    def test_cold_solves_match_rvi_reference(self):
        batch = BanditBatch(mixed_mdps(1.0))
        for lam in LAMBDA_GRID:
            counts = SolveCounts()
            sol = solve_batch(batch, lam, counts=counts)
            actions, values, _, _ = rvi_reference(batch, lam)
            assert np.array_equal(sol.actions, actions)
            assert np.array_equal(sol.values, values)
            assert counts.policy_evaluations == counts.pi_rounds * batch.size

    def test_multichain_iterates_go_to_rvi(self, monkeypatch):
        """A multichain iterate takes the multichain step, and the solve
        still ends where relative value iteration does."""
        masks = spy_on_multichain_steps(monkeypatch)
        # naturally, on the warm-started rho = 1 pair
        for _ in warm_sweep(BanditBatch(rho_one_pair(4))):
            pass
        assert masks
        # forced: fig1's first iterate is multichain, and the solve still
        # ends, bit for bit, at the RVI reference and at the cold solve
        fig1 = fig1_mdp(beta=1.0)
        masks.clear()
        sol = solve_batch(BanditBatch([fig1]), 0.05, multichain_warm_start(fig1))
        assert masks and masks[0] == [True]
        cold = solve_batch(BanditBatch([fig1]), 0.05)
        reference = rvi_reference(BanditBatch([fig1]), 0.05, multichain_warm_start(fig1))
        for got in (sol, cold):
            for array, expected in zip((got.actions, got.values, got.gains, got.usage), reference):
                assert array.tobytes() == expected.tobytes()
        # in a batch, only the multichain bandit takes the multichain step
        other = mixed_mdps(1.0)[2]
        batch = BanditBatch([fig1, other])
        init = np.concatenate([multichain_warm_start(fig1), np.zeros(other.n_states)])
        masks.clear()
        sol = solve_batch(batch, 0.05, init)
        assert masks[0] == [True, False]
        actions, values, gains, usage = rvi_reference(batch, 0.05, init)
        assert np.array_equal(sol.actions, actions)
        assert np.array_equal(sol.values, values)
        assert np.array_equal(sol.gains, gains)
        assert np.array_equal(sol.usage, usage)
        alone = solve_average(other, 0.05)
        assert np.array_equal(batch.split(sol.actions, 1), alone.actions)

    @pytest.mark.parametrize("mdps", [mixed_mdps(1.0), rho_one_pair(4)], ids=["mixed", "rho1-4"])
    def test_each_bandit_as_in_a_batch_of_one(self, mdps):
        batch = BanditBatch(mdps)
        alone = [BanditBatch([mdp]) for mdp in mdps]
        warm = [None] * len(mdps)
        for lam, _, sol in warm_sweep(batch):
            for b, one in enumerate(alone):
                own = solve_batch(one, lam, warm[b])
                warm[b] = own.values
                assert np.array_equal(batch.split(sol.actions, b), own.actions)
                scale = max(1.0, np.max(np.abs(own.values)))
                assert np.max(np.abs(batch.split(sol.values, b) - own.values)) <= 1e-13 * scale
                assert sol.gains[b] == pytest.approx(own.gains[0], abs=1e-13)
                assert sol.usage[b] == pytest.approx(own.usage[0], abs=1e-13)


def cesaro_limit(p):
    """P* = lim (1/n) sum_k P^k of a dense stochastic matrix: the stationary
    law of each closed class, weighted by the probability of ending in it."""
    n = len(p)
    n_comp, labels = csgraph.connected_components(p > 0, directed=True, connection="strong")
    src, dst = (labels[side] for side in np.nonzero(p > 0))
    closed = set(range(n_comp)) - set(src[src != dst].tolist())
    transient = ~np.isin(labels, list(closed))
    p_star = np.zeros((n, n))
    for c in closed:
        members = labels == c
        k = int(members.sum())
        a = np.vstack([p[np.ix_(members, members)].T - np.eye(k), np.ones(k)])
        pi = np.linalg.lstsq(a, np.concatenate([np.zeros(k), [1.0]]), rcond=None)[0]
        ends = members.astype(float)
        q = p[np.ix_(transient, transient)]
        ends[transient] = np.linalg.solve(np.eye(len(q)) - q, p[np.ix_(transient, members)].sum(axis=1))
        p_star[:, members] = ends[:, None] * pi[None, :]
    return p_star, labels, closed


def class_anchors(mdp, labels, closed):
    """The lowest node (reset states in chain order, then omega) of each
    closed class."""
    nodes = list(mdp.reset_states) + [0]
    return [next(s for s in nodes if labels[s] == c) for c in closed]


class TestMultichainEvaluation:
    """The multichain evaluation against a dense Cesaro-limit reference."""

    @settings(max_examples=80, deadline=None)
    @given(**dict(CASES, rho=st.just(1.0)))
    def test_gain_is_cesaro_limit_and_evaluation_equations_hold(self, seed, n, L, rho):
        mdp, actions, cost = random_policy_case(seed, n, L, rho, 1.0)
        p = induced_transition(mdp, actions).toarray()
        p_star, labels, closed = cesaro_limit(p)
        if len(closed) == 1:
            return
        h, g, unichain = _evaluate(BanditBatch([mdp]), actions, cost[:, None])
        h, g = h[:, 0], g[:, 0]
        assert not unichain[0]
        scale = max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(g - p_star @ cost)) <= 1e-12 * scale
        assert np.max(np.abs(g - p @ g)) <= 1e-12 * scale
        assert np.max(np.abs(g + h - cost - p @ h)) <= 1e-12 * scale
        for anchor in class_anchors(mdp, labels, closed):
            assert h[anchor] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(**CASES)
    def test_unichain_policy_through_the_multichain_system(self, seed, n, L, rho):
        mdp, actions, cost = random_policy_case(seed, n, L, rho, 1.0)
        if recurrent_class_count(induced_transition(mdp, actions)) != 1:
            return
        batch = BanditBatch([mdp])
        z, g, _ = _evaluate(batch, actions, cost[:, None])
        with pytest.MonkeyPatch.context() as mp:
            force_multichain(mp)
            h, g_forced, unichain = _evaluate(batch, actions, cost[:, None])
        assert not unichain[0]
        scale = max(1.0, np.max(np.abs(z)))
        anchor = mdp.reset_states[0]
        assert np.max(np.abs(g_forced - g)) <= 1e-12 * scale
        # the multichain system solves for a gain per node, so a slow drain
        # into the class costs accuracy: values grow like the hitting time
        # and their rounding error like its square
        assert np.max(np.abs(h - h[anchor] - z)) <= 1e-12 * scale ** 2


class TestMultichainStep:
    def test_gain_step_first_then_bias_only_among_gain_ties(self):
        mdp = fig1_mdp(beta=1.0, L=4)  # rho = 1: an active state resets
        batch = BanditBatch([mdp])
        passive = np.zeros(mdp.n_states, dtype=np.int8)
        active = 1 - passive

        def step(actions, greedy, gains, multichain=True):
            return solvers_module._multichain_step(batch, actions, greedy, gains, np.array([multichain]))

        # gain 0 at the reset states and 1 elsewhere: activating lowers P_a g
        # in every state, whatever the bias step would choose
        gains = np.ones(mdp.n_states)
        gains[mdp.reset_states] = 0.0
        assert np.array_equal(step(passive, passive, gains), active)
        # no state changes on the gain, and the bias step may not leave the
        # strictly gain-better action
        assert np.array_equal(step(active, passive, gains), active)
        # where P_a g ties, the bias step decides
        assert np.array_equal(step(active, passive, np.zeros(mdp.n_states)), passive)
        # a unichain bandit takes the greedy policy
        assert np.array_equal(step(active, passive, gains, multichain=False), passive)
