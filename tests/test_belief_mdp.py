import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoisched import (
    BanditSpec,
    TruncationTooDeep,
    average_error_bound,
    build_truncated,
    choose_truncation,
    discounted_error_bound,
    entropy,
    policy_iteration_discounted,
    solve_average,
    transition_matrices,
    truncation_diagnostics,
    validate_chain,
)
import uoisched
from uoisched.belief_mdp import _fannes_gap, nearest_state
from uoisched.lagrange import gradient_search, make_problem

from conftest import (
    FIG1,
    frozen_aged_beliefs,
    frozen_choose_truncation,
    frozen_truncation_diagnostics,
    random_bandit,
    random_chain,
)


def fig1_bandit(rho=1.0):
    return BanditSpec(chain=validate_chain(FIG1), success_prob=rho, label="fig1")


class TestBuildTruncated:
    def test_state_count(self):
        rng = np.random.default_rng(3)
        bandit = random_bandit(rng, 3, "x")
        mdp = build_truncated(bandit, 10, 0.9)
        assert mdp.n_states == 31

    def test_omega_passive_self_loop(self):
        mdp = build_truncated(fig1_bandit(), 6, 0.9)
        row = transition_matrices(mdp)[0].getrow(0).toarray().ravel()
        assert row[0] == 1.0 and row.sum() == 1.0

    def test_active_from_reset_state_splits_by_belief(self):
        # state T_2^1 = [0.3, 0.7] under rho = 1: resets to T_1^1 w.p. 0.3, T_2^1 w.p. 0.7
        mdp = build_truncated(fig1_bandit(rho=1.0), 6, 0.9)
        sid = mdp.state_index(2, 1)
        assert np.allclose(mdp.states[sid], [0.3, 0.7])
        row = transition_matrices(mdp)[1].getrow(sid).toarray().ravel()
        assert row[mdp.state_index(1, 1)] == pytest.approx(0.3, abs=1e-15)
        assert row[mdp.state_index(2, 1)] == pytest.approx(0.7, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_age_cap_goes_to_omega(self):
        mdp = build_truncated(fig1_bandit(), 4, 0.9)
        for k in (1, 2):
            assert mdp.passive_next[mdp.state_index(k, 4)] == 0
            assert mdp.passive_next[mdp.state_index(k, 2)] == mdp.state_index(k, 3)
        for L in (1, 2, 5):
            mdp = build_truncated(fig1_bandit(), L, 0.9)
            ids = np.arange(mdp.n_states)
            assert mdp.passive_next.tolist() == np.where(ids % L == 0, 0, ids + 1).tolist()
            assert mdp.passive_next.dtype == np.int64

    def test_a_second_build_of_a_chain_reuses_its_aged_beliefs(self):
        bandit = random_bandit(np.random.default_rng(8), 3, "x")
        first = build_truncated(bandit, 12, 0.9)
        cached = bandit.chain._aged
        assert cached.shape == (3, 12, 3)
        # the other criterion, a shallower depth, and a bandit sharing the chain
        again = [
            build_truncated(bandit, 12, 1.0),
            build_truncated(bandit, 7, 0.9),
            build_truncated(BanditSpec(bandit.chain, 0.5, "x-2"), 12, 0.9),
        ]
        assert bandit.chain._aged is cached
        assert again[0].states.tobytes() == first.states.tobytes()
        assert again[1].states[1:].tobytes() == cached[:, :7].tobytes()
        assert again[2].costs_passive.tobytes() == first.costs_passive.tobytes()
        # a deeper build extends the chain's ages, keeping the first 12
        deeper = build_truncated(bandit, 20, 0.9)
        assert bandit.chain._aged is not cached
        assert deeper.states[1:].reshape(3, 20, 3)[:, :12].tobytes() == cached.tobytes()

    def test_costs_are_entropies(self):
        mdp = build_truncated(fig1_bandit(), 5, 0.9)
        for s in range(mdp.n_states):
            assert mdp.costs_passive[s] == pytest.approx(entropy(mdp.states[s]), abs=1e-15)

    def test_pure_reset_at_rho_one(self):
        rng = np.random.default_rng(11)
        bandit = random_bandit(rng, 3, "x", rho=1.0)
        mdp = build_truncated(bandit, 8, 0.9)
        active = transition_matrices(mdp)[1]
        for s in range(mdp.n_states):
            row = active.getrow(s)
            support = set(row.indices)
            expected = {
                int(mdp.reset_states[k])
                for k in range(3)
                if mdp.states[s][k] > 0
            }
            assert support == expected

    def test_nearest_state_mapping(self):
        mdp = build_truncated(fig1_bandit(), 6, 0.9)
        assert nearest_state(mdp.states, mdp.states[0]) == 0
        # the point mass on state 2 is closest to the age-1 belief T_2^1
        assert nearest_state(mdp.states, [0.0, 1.0]) == mdp.state_index(2, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_truncated(fig1_bandit(), 0, 0.9)
        with pytest.raises(ValueError):
            build_truncated(fig1_bandit(), 3, 1.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.sampled_from([0.3, 0.7, 1.0]))
def test_transition_rows_sum_to_one(seed, n, rho):
    rng = np.random.default_rng(seed)
    bandit = BanditSpec(random_chain(rng, n, max_eig2=1.0), rho, "h")
    mdp = build_truncated(bandit, int(rng.integers(1, 9)), 0.9)
    for mat in transition_matrices(mdp):
        sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_import_loads_no_scipy():
    # in a fresh interpreter: this test process has scipy loaded already
    code = "import sys, uoisched; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(uoisched.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestChooseTruncation:
    def test_fig1_reaches_target(self):
        L, diag = choose_truncation(fig1_bandit(), 1e-6)
        assert L >= 1 and diag.eta_L <= 1e-6
        assert diag.truncation_L == L

    def test_loose_target_gives_depth_one(self):
        L, _ = choose_truncation(fig1_bandit(), 1.0)
        assert L == 1

    def test_slow_chain_needs_deeper_truncation(self):
        slow = BanditSpec(validate_chain([[0.01, 0.99], [0.99, 0.01]]), 1.0, "slow")
        l_slow, _ = choose_truncation(slow, 1e-4)
        l_fig1, _ = choose_truncation(fig1_bandit(), 1e-4)
        assert l_slow > l_fig1

    def test_cap_exceeded(self):
        slow = BanditSpec(validate_chain([[0.001, 0.999], [0.999, 0.001]]), 1.0, "s")
        with pytest.raises(TruncationTooDeep):
            choose_truncation(slow, 1e-12, l_max=5)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            choose_truncation(fig1_bandit(), 0.0)


def diagnostics_bits(diag) -> tuple:
    return (diag.truncation_L, diag.eta_L.hex(), diag.sigma_L.hex(), diag.b_h.hex(), diag.probe_depth)


def truncation_outcome(choose, bandit, eta, l_max) -> tuple:
    try:
        L, diag = choose(bandit, eta, l_max=l_max)
    except TruncationTooDeep as exc:
        return ("too deep", str(exc))
    return (L, diagnostics_bits(diag))


def slow_or_fast_chain(rng, n):
    """A random chain, slowly mixing (0.97 I plus a little mixing) three
    times in ten."""
    if rng.random() < 0.3:
        return validate_chain(0.97 * np.eye(n) + 0.03 * rng.dirichlet(np.ones(n), size=n).T)
    return random_chain(rng, n)


class TestFrozenTruncation:
    """`choose_truncation`, `truncation_diagnostics` and `aged_beliefs` make
    each matrix power with one BLAS call into a stack, and still do the
    floating-point operations of their frozen copies in conftest: every
    depth, certificate and belief matches byte for byte."""

    def test_random_chains_across_stack_boundaries(self):
        rng = np.random.default_rng(30)
        too_deep = 0
        for _ in range(150):
            bandit = BanditSpec(slow_or_fast_chain(rng, int(rng.integers(2, 7))), 1.0, "x")
            eta = float(rng.choice([1e-3, 1e-6, 1e-9]))
            l_max = int(rng.choice([1, 5, 15, 16, 17, 31, 32, 33, 64, 10000]))
            got = truncation_outcome(choose_truncation, bandit, eta, l_max)
            assert got == truncation_outcome(frozen_choose_truncation, bandit, eta, l_max)
            too_deep += got[0] == "too deep"
        assert 0 < too_deep < 150

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_diagnostics_of_chains_up_to_twelve_states(self, n):
        # from N = 8 up, a sum along a strided axis may add in another order
        rng = np.random.default_rng(31 + n)
        for L in (1, 2, 7, 16, 40):
            chain = slow_or_fast_chain(rng, n)
            got = truncation_diagnostics(chain, L)
            assert diagnostics_bits(got) == diagnostics_bits(frozen_truncation_diagnostics(chain, L))

    def test_aged_beliefs_fresh_and_extended(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            chain = slow_or_fast_chain(rng, int(rng.integers(2, 9)))
            first, deeper = sorted(int(v) for v in rng.integers(1, 50, size=2))
            expected = frozen_aged_beliefs(chain.transition, np.empty((chain.n_states, 0, chain.n_states)), first)
            assert chain.aged_beliefs(first).tobytes() == expected.tobytes()
            expected = frozen_aged_beliefs(chain.transition, expected, deeper)
            assert chain.aged_beliefs(deeper).tobytes() == expected.tobytes()

    def test_too_deep_names_the_gap_at_l_max(self):
        bandit = BanditSpec(validate_chain([[0.99, 0.02], [0.01, 0.98]]), 1.0, "x")
        with pytest.raises(TruncationTooDeep, match=r"^no L <= 5 reaches eta_target=1e-12 \(gap at L=5: 0\.572\)$"):
            choose_truncation(bandit, 1e-12, l_max=5)

    def test_rejects_l_max_below_one(self):
        with pytest.raises(ValueError, match="l_max"):
            choose_truncation(fig1_bandit(), 1e-6, l_max=0)


class TestErrorBounds:
    def test_exact_truncation_gives_zero(self):
        diag = truncation_diagnostics(validate_chain(FIG1), 4)
        zero = type(diag)(truncation_L=4, eta_L=0.0, sigma_L=0.0, b_h=1.0, probe_depth=16)
        assert discounted_error_bound(zero, 1.0, 0.9, 2, 1.0) == 0.0

    def test_myopic_horizon_gives_zero(self):
        diag = truncation_diagnostics(validate_chain(FIG1), 4)
        assert discounted_error_bound(diag, 0.0, 0.0, 2, 1.0) == 0.0

    def test_formula_value(self):
        diag = truncation_diagnostics(validate_chain(FIG1), 4)
        hand = type(diag)(truncation_L=4, eta_L=0.001, sigma_L=0.01, b_h=1.0, probe_depth=16)
        assert discounted_error_bound(hand, 0.0, 0.9, 2, 1.0) == pytest.approx(0.27, abs=1e-12)

    def test_average_bound_is_sigma(self):
        diag = truncation_diagnostics(validate_chain(FIG1), 6)
        assert average_error_bound(diag) == diag.sigma_L
        hand = type(diag)(truncation_L=6, eta_L=0.0, sigma_L=0.02, b_h=1.0, probe_depth=24)
        assert average_error_bound(hand) == 0.02

    def test_doubling_depth_never_loosens(self):
        rng = np.random.default_rng(77)
        for _ in range(4):
            chain = random_chain(rng, int(rng.integers(2, 4)))
            for L in (2, 5, 9):
                d1 = truncation_diagnostics(chain, L)
                d2 = truncation_diagnostics(chain, 2 * L)
                assert average_error_bound(d2) <= average_error_bound(d1) + 1e-15
                assert d2.eta_L <= d1.eta_L + 1e-15


class TestFannesGap:
    """tv * log2(n - 1) + Hb(tv) below tv = 1 - 1/n, where it peaks at
    log2(n), and log2(n) from there on."""

    @pytest.mark.parametrize("n", [2, 3, 5, 30])
    def test_formula_below_the_cap(self, n):
        for tv in np.linspace(0.0, 1.0 - 1.0 / n, 8, endpoint=False)[1:]:
            hb = -tv * math.log2(tv) - (1.0 - tv) * math.log2(1.0 - tv)
            assert _fannes_gap(tv, n) == pytest.approx(tv * math.log2(max(n - 1, 1)) + hb, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 30])
    def test_capped_at_log2_n(self, n):
        cap = 1.0 - 1.0 / n
        for tv in (cap, (cap + 1.0) / 2, 1.0):
            assert _fannes_gap(tv, n) == np.log2(n)
        # the formula meets the cap where it peaks
        assert _fannes_gap(np.nextafter(cap, 0.0), n) == pytest.approx(np.log2(n), abs=1e-12)

    def test_zero_distance_gives_zero(self):
        assert _fannes_gap(0.0, 3) == 0.0


def common_state_ids(n, L):
    ids_l = [0] + [(k - 1) * L + age for k in range(1, n + 1) for age in range(1, L + 1)]
    ids_2l = [0] + [(k - 1) * 2 * L + age for k in range(1, n + 1) for age in range(1, L + 1)]
    return ids_l, ids_2l


def test_truncation_certificates_on_random_bandits():
    # doubling L moves values by less than the certified bound, state by state
    rng = np.random.default_rng(515)
    beta = 0.9
    for _ in range(3):
        n = int(rng.integers(2, 4))
        bandit = random_bandit(rng, n, "t")
        L, diag = choose_truncation(bandit, 1e-3)
        mdp_l = build_truncated(bandit, L, beta)
        mdp_2l = build_truncated(bandit, 2 * L, beta)
        lam_star = gradient_search(make_problem([mdp_l, mdp_l], 1, "discounted")).lambda_star
        ids_l, ids_2l = common_state_ids(n, L)
        for lam in (0.0, lam_star):
            v_l = policy_iteration_discounted(mdp_l, lam).values
            v_2l = policy_iteration_discounted(mdp_2l, lam).values
            gap = np.max(np.abs(v_l[ids_l] - v_2l[ids_2l]))
            assert gap <= discounted_error_bound(diag, lam, beta, n, bandit.success_prob)
        a_l = build_truncated(bandit, L, 1.0)
        a_2l = build_truncated(bandit, 2 * L, 1.0)
        for lam in (0.0, lam_star):
            g_l = solve_average(a_l, lam).gain
            g_2l = solve_average(a_2l, lam).gain
            assert abs(g_l - g_2l) <= average_error_bound(diag)
