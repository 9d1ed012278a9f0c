import functools
import hashlib
import importlib
import json
import os
import re
import signal
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoisched import (
    BanditSpec,
    ChainSpec,
    RMABInstance,
    asymptotic_sweep,
    build_joint,
    build_truncated,
    choose_truncation,
    discounted_horizon,
    gain_indices_average,
    gain_indices_discounted,
    gradient_search,
    make_problem,
    objective_value,
    simulate,
    validate_chain,
)

from uoisched.belief_mdp import nearest_state, state_labels
from uoisched import parallel
from uoisched.config import load_config
from uoisched.rng import RunStreams
from uoisched.simulate import _BLOCK_DOUBLES, POLICIES, _walk
from uoisched.solvers import ACTIVE_TIE_TOL
from uoisched.workflows import compute_index_tables, prepare

from conftest import FIG1, discounted_sample, random_bandit


def constant_entropy_chain():
    # both columns equal [0.5, 0.5]: every reachable belief has entropy 1
    return validate_chain([[0.5, 0.5], [0.5, 0.5]])


def zero_entropy_chain():
    # degenerate sink chain (reducible, so built by hand): every belief is a
    # point mass and entropy is identically zero
    t = np.array([[1.0, 1.0], [0.0, 0.0]])
    return ChainSpec(n_states=2, transition=t, equilibrium=np.array([1.0, 0.0]))


def fig1_instance(criterion, beta, m=1, seed=3, rho=1.0):
    chain = validate_chain(FIG1)
    bandits = [BanditSpec(chain, rho, "a"), BanditSpec(chain, rho, "b")]
    return RMABInstance(bandits, m, criterion, beta, seed=seed)


def fig1_tables(criterion, beta, rho=1.0):
    chain = validate_chain(FIG1)
    bandit_a = BanditSpec(chain, rho, "a")
    bandit_b = BanditSpec(chain, rho, "b")
    L, _ = choose_truncation(bandit_a, 1e-6)
    mdps = [build_truncated(b, L, beta) for b in (bandit_a, bandit_b)]
    lam = gradient_search(make_problem(mdps, 1, criterion)).lambda_star
    maker = gain_indices_discounted if criterion == "discounted" else gain_indices_average
    return [maker(m, lam) for m in mdps], mdps, lam


class TestDiscountedHorizon:
    def test_horizon_tail_rule(self):
        T = discounted_horizon(0.9, 2.0)
        assert 0.9 ** T * 2.0 / 0.1 < 1e-6
        assert 0.9 ** (T - 1) * 2.0 / 0.1 >= 1e-6


class TestSimulateBasics:
    def test_zero_entropy_sources_cost_exactly_zero(self):
        bandits = [BanditSpec(zero_entropy_chain(), 1.0, l) for l in ("a", "b")]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=1)
        res = simulate(inst, "round_robin", horizon=500, runs=4, truncation_L=3)
        assert res.mean == 0.0 and res.stderr == 0.0

    def test_constant_entropy_sources_average_is_sum_of_equilibrium_entropies(self):
        # beliefs never move in value: time-average UoI = H(w1) + H(w2) exactly
        bandits = [BanditSpec(constant_entropy_chain(), 1.0, l) for l in ("a", "b")]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=2)
        res = simulate(inst, "round_robin", horizon=400, runs=3, truncation_L=4)
        assert res.mean == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.per_run, 2.0)

    def test_round_robin_activation_frequencies_equal(self):
        rng = np.random.default_rng(8)
        bandits = [random_bandit(rng, 2, f"b{j}", rho=1.0) for j in range(5)]
        inst = RMABInstance(bandits, 2, "average", 1.0, seed=5)
        res = simulate(inst, "round_robin", horizon=1000, runs=3, truncation_L=6)
        assert np.allclose(res.activation_freq, 2 / 5, atol=1e-12)
        assert res.activation_freq.sum() == pytest.approx(inst.m, abs=1e-12)

    def test_gain_index_requires_tables(self):
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError):
            simulate(inst, "gain_index", horizon=10, runs=2, truncation_L=4)

    def test_traces_require_tables(self):
        # the OR decisions are read from the index tables, so a call without
        # them cannot record the traces it was asked for
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError, match="record_y"):
            simulate(inst, "myopic", horizon=10, runs=2, truncation_L=4, record_y=True)

    def test_channel_budget_must_leave_slack(self):
        chain = validate_chain(FIG1)
        bandits = [BanditSpec(chain, 1.0, "a"), BanditSpec(chain, 1.0, "b")]
        with pytest.raises(ValueError):
            RMABInstance(bandits, 2, "average", 1.0)
        with pytest.raises(ValueError):
            RMABInstance(bandits, 0, "average", 1.0)

    @pytest.mark.parametrize(
        "criterion, beta",
        [("discounted", 1.0), ("discounted", -0.1), ("average", 0.9), ("average", 1.5), ("discount", 0.9)],
    )
    def test_criterion_must_match_the_discount(self, criterion, beta):
        chain = validate_chain(FIG1)
        bandits = [BanditSpec(chain, 1.0, "a"), BanditSpec(chain, 1.0, "b")]
        with pytest.raises(ValueError, match="cannot have discount"):
            RMABInstance(bandits, 1, criterion, beta)

    def test_tables_from_another_chain_rejected(self):
        tables, _, _ = fig1_tables("average", 1.0)
        other = validate_chain([[0.9, 0.2], [0.1, 0.8]])
        bandits = [BanditSpec(validate_chain(FIG1), 1.0, "a"), BanditSpec(other, 1.0, "b")]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=3)
        with pytest.raises(ValueError, match="'b'"):
            simulate(inst, "gain_index", horizon=10, runs=2, tables=tables)

    def test_tables_from_another_truncation_depth_rejected(self):
        tables, mdps, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0)
        depths = [mdp.truncation_L for mdp in mdps]
        simulate(inst, "gain_index", horizon=10, runs=2, tables=tables, truncation_L=depths)
        with pytest.raises(ValueError, match="'b'.*truncation depth"):
            simulate(inst, "gain_index", horizon=10, runs=2, tables=tables, truncation_L=[depths[0], 5])

    @pytest.mark.parametrize(
        "horizon, runs, burn_in, message",
        [(0, 4, None, "horizon"), (10, 0, None, "runs"), (10, 4, -1, "burn_in"), (10, 4, 10, "burn_in")],
    )
    def test_run_lengths_rejected(self, horizon, runs, burn_in, message):
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError, match=message):
            simulate(inst, "round_robin", horizon, runs, truncation_L=4, burn_in=burn_in)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda inst, mdps: make_problem(mdps, 1.5, "average"), "m must be an integer, got 1.5"),
            (lambda inst, mdps: make_problem(mdps, True, "average"), "m must be an integer, got True"),
            (lambda inst, mdps: RMABInstance(inst.bandits, 1.5, "average", 1.0), "m must be an integer, got 1.5"),
            (lambda inst, mdps: RMABInstance(inst.bandits, True, "average", 1.0), "m must be an integer, got True"),
            (lambda inst, mdps: build_joint(mdps, 1.5), "m must be an integer, got 1.5"),
            (lambda inst, mdps: build_joint(mdps, True), "m must be an integer, got True"),
            (lambda inst, mdps: simulate(inst, "round_robin", 10.5, 4, truncation_L=4), "horizon must be an integer"),
            (lambda inst, mdps: simulate(inst, "round_robin", 10, 2.5, truncation_L=4), "runs must be an integer"),
            (lambda inst, mdps: simulate(inst, "round_robin", 10, True, truncation_L=4), "runs must be an integer"),
            (
                lambda inst, mdps: simulate(inst, "round_robin", 10, 4, truncation_L=4, burn_in=2.5),
                "burn_in must be an integer",
            ),
        ],
        ids=[
            "problem_m_fractional", "problem_m_bool", "instance_m_fractional", "instance_m_bool",
            "joint_m_fractional", "joint_m_bool", "horizon_fractional", "runs_fractional", "runs_bool",
            "burn_in_fractional",
        ],
    )
    def test_counts_must_be_integers(self, call, message):
        # unchecked, a fractional count is taken as it comes (m = 1.5 makes
        # a budget of 1.5 channels), truncated (burn_in) or fails inside
        # numpy, and a bool reads as 0 or 1
        inst = fig1_instance("average", 1.0)
        mdps = [build_truncated(b, 4, 1.0) for b in inst.bandits]
        with pytest.raises(TypeError, match=message):
            call(inst, mdps)

    def test_discounted_burn_in_rejected(self):
        """Discounting weighs every slot from the first, so a burn-in there
        raises instead of being dropped; None and 0 mean no burn-in."""
        prep = discounted_sample()
        inst = prep.config.build_instance()
        kw = dict(truncation_L=prep.l_per_bandit)
        with pytest.raises(ValueError, match="burn_in must be 0 or None under discounting"):
            simulate(inst, "round_robin", 50, 4, burn_in=30, **kw)
        plain = simulate(inst, "round_robin", 50, 4, **kw)
        zero = simulate(inst, "round_robin", 50, 4, burn_in=0, **kw)
        assert plain.burn_in == zero.burn_in == 0
        assert plain.per_run.tolist() == zero.per_run.tolist()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: replace(t, bandit_label="c"), "table label 'c' does not match bandit 'b'"),
            (lambda t: replace(t, criterion="discounted"), "table criterion 'discounted' does not match instance"),
            (lambda t: replace(t, lambda_star=t.lambda_star + 1e-6), "index tables were computed at different multipliers"),
        ],
        ids=["label", "criterion", "multiplier"],
    )
    def test_table_that_does_not_match_the_instance_rejected(self, edit, message):
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(inst, "gain_index", horizon=10, runs=2, tables=[tables[0], edit(tables[1])])

    @pytest.mark.parametrize(
        "make_kwargs, message",
        [
            (lambda tables: {"policy": "gain_index", "tables": tables[:1]}, "expected 2 tables, got 1"),
            (lambda tables: {"policy": "myopic"}, "truncation_L is required when no index tables are given"),
            (lambda tables: {"policy": "myopic", "truncation_L": [4, 4, 4]}, "expected 2 truncation depths, got 3"),
        ],
        ids=["table_count", "no_truncation_depth", "depth_count"],
    )
    def test_table_and_depth_counts_rejected(self, make_kwargs, message):
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(inst, horizon=10, runs=2, **make_kwargs(tables))

    @pytest.mark.parametrize(
        "labels, initial_beliefs, message",
        [
            (("a", "a"), None, "bandit labels must be unique"),
            (("a", "b"), [[1.0, 0.0]], "one initial belief per bandit required"),
        ],
        ids=["duplicate_labels", "initial_belief_count"],
    )
    def test_instance_rejected(self, labels, initial_beliefs, message):
        chain = validate_chain(FIG1)
        bandits = [BanditSpec(chain, 1.0, label) for label in labels]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RMABInstance(bandits, 1, "average", 1.0, initial_beliefs=initial_beliefs)

    def test_unknown_policy_rejected(self):
        # a callable is not a policy: the simulator runs the names in POLICIES only
        inst = fig1_instance("average", 1.0)
        for policy in ("nonsense", lambda t, beliefs, instance: beliefs[:, :1]):
            with pytest.raises(ValueError, match="unknown policy"):
                simulate(inst, policy, horizon=10, runs=2, truncation_L=4)


class TestDeterminism:
    def test_same_seed_byte_identical_json(self):
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0, seed=99)
        r1 = simulate(inst, "gain_index", horizon=800, runs=6, tables=tables, record_y=True)
        r2 = simulate(inst, "gain_index", horizon=800, runs=6, tables=tables, record_y=True)
        assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(r2.to_json_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0)
        r1 = simulate(inst, "gain_index", horizon=800, runs=6, seed=1, tables=tables)
        r2 = simulate(inst, "gain_index", horizon=800, runs=6, seed=2, tables=tables)
        assert r1.per_run.tolist() != r2.per_run.tolist()


def reference_simulate(inst, policy, tables, horizon, runs, seed, burn_in=0):
    """Plain-Python simulator: one run and one bandit at a time, beliefs kept
    as symbolic (k, n) states, drawing from run r's own stream in the
    documented order (initial draws, then per slot success draws for bandits
    0..M-1 and transition draws for bandits 0..M-1).  Run r's stream is child
    r of SeedSequence(seed) on a Philox bit generator, read one raw 64-bit
    output at a time and turned into a double by (raw >> 11) * 2**-53."""
    M, m, beta = inst.n_bandits, inst.m, inst.discount
    mdps = [build_truncated(b, t.truncation_L, 0.0) for b, t in zip(inst.bandits, tables)]
    labels = [b.label for b in inst.bandits]
    lam = tables[0].lambda_star
    scale = beta if inst.criterion == "discounted" else 1.0

    def draw_from(probs, u):
        cum, k = 0.0, 0
        for p in probs:
            cum += p
            k += u > cum
        return min(k, len(probs) - 1)

    per_run, counts = [], [0] * M
    or_count, or_trace, sel_trace = [], [], []
    for r in range(runs):
        bits = np.random.Philox(np.random.SeedSequence(seed).spawn(runs)[r])
        draw = lambda: (int(bits.random_raw()) >> 11) * 2.0 ** -53  # noqa: E731
        sym = []
        for i, mdp in enumerate(mdps):
            chi = inst.initial_beliefs[i] if inst.initial_beliefs is not None else None
            labels = state_labels(mdp.bandit.chain.n_states, mdp.truncation_L)
            sym.append(labels[0 if chi is None else nearest_state(mdp.states, chi)])
        ids = lambda: [mdp.state_index(k, n) for mdp, (k, n) in zip(mdps, sym)]  # noqa: E731
        x = [draw_from(mdps[i].states[ids()[i]], draw()) for i in range(M)]
        total, beta_pow = 0.0, 1.0
        for t in range(1, horizon + 1):
            sid = ids()
            cost = 0.0
            for i in range(M):
                cost += float(mdps[i].costs_passive[sid[i]])
            if inst.criterion == "discounted":
                total += beta_pow * cost
                beta_pow *= beta
            elif t > burn_in:
                total += cost
            if policy == "round_robin":
                chosen = [(j + (t - 1) * m) % M for j in range(m)]
            else:
                score = [
                    float(tables[i].indices[sid[i]] if policy == "gain_index" else mdps[i].costs_passive[sid[i]])
                    for i in range(M)
                ]
                chosen = sorted(range(M), key=lambda i: (-score[i], labels[i]))[:m]
            for i in chosen:
                counts[i] += 1
            if r == 0:
                mask = [scale * float(tables[i].indices[sid[i]]) >= lam - ACTIVE_TIE_TOL for i in range(M)]
                or_trace.append(mask)
                or_count.append(sum(mask))
                sel_trace.append(sorted(chosen))
            success = [draw() < inst.bandits[i].success_prob and i in chosen for i in range(M)]
            for i in range(M):
                obs = x[i]
                x[i] = draw_from(inst.bandits[i].chain.transition[:, obs], draw())
                k, n = sym[i]
                if success[i]:
                    sym[i] = (obs + 1, 1)
                elif k == 0 or n == mdps[i].truncation_L:
                    sym[i] = (0, 0)
                else:
                    sym[i] = (k, n + 1)
        per_run.append(total if inst.criterion == "discounted" else total / (horizon - burn_in))
    freq = [c / (runs * horizon) for c in counts]
    return per_run, freq, or_count, or_trace, sel_trace


@functools.cache
def mixed_instance(criterion, beta):
    """Mixed chain sizes and depths, so every per-bandit offset and every
    padded cdf row is exercised; labels are not in bandit order.  Cached:
    the average-cost gradient search takes a second, and simulate does not
    modify the instance or its tables."""
    rng = np.random.default_rng(21)
    sizes, depths = [2, 4, 3, 2, 3], [3, 2, 5, 6, 4]
    bandits = [random_bandit(rng, n, f"s{(3 * i) % 5}") for i, n in enumerate(sizes)]
    mdps = [build_truncated(b, L, beta) for b, L in zip(bandits, depths)]
    lam = gradient_search(make_problem(mdps, 2, criterion)).lambda_star
    maker = gain_indices_discounted if criterion == "discounted" else gain_indices_average
    tables = [maker(mdp, lam) for mdp in mdps]
    initial = [None, None, [0.1, 0.2, 0.7], None, None]
    return RMABInstance(bandits, 2, criterion, beta, initial_beliefs=initial, seed=0), tables


@functools.cache
def tied_instance(criterion, beta):
    """Four copies of one source sharing one table, labelled c-1 .. c-4 as
    `asymptotic_sweep` labels class duplicates, and one further source
    labelled "a" and listed last.  At L = 1 a copy has three truncated
    states, so in every slot at least two copies hold the same state and tie
    on score, and the label decides between them."""
    rng = np.random.default_rng(8)
    base, other = random_bandit(rng, 2, "c"), random_bandit(rng, 3, "a")
    copies = [BanditSpec(base.chain, base.success_prob, f"c-{j}") for j in range(1, 5)]
    maker = gain_indices_discounted if criterion == "discounted" else gain_indices_average
    table, other_table = (maker(build_truncated(b, L, beta), 0.3) for b, L in ((base, 1), (other, 4)))
    tables = [replace(table, bandit_label=b.label) for b in copies] + [other_table]
    return RMABInstance(copies + [other], 2, criterion, beta, seed=0), tables


@functools.cache
def m10_instance(criterion, beta):
    """Ten random sources with N in {2, 3, 4} and auto truncation, like the
    benchmark's M=10 instance, m = 3, and index tables at charge 0.3."""
    rng = np.random.default_rng(10)
    bandits = [random_bandit(rng, int(rng.integers(2, 5)), f"b{i}") for i in range(10)]
    mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits]
    maker = gain_indices_discounted if criterion == "discounted" else gain_indices_average
    tables = [maker(mdp, 0.3) for mdp in mdps]
    return RMABInstance(bandits, 3, criterion, beta, seed=7), tables


CRITERIA = [("discounted", 0.9), ("average", 1.0)]


class TestReferenceSimulator:
    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_flat_simulator_matches_reference_exactly(self, criterion, beta):
        self.check_against_reference(*mixed_instance(criterion, beta))

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_single_channel_matches_reference_exactly(self, criterion, beta):
        # m = 1 selects with a minimum instead of a partition
        inst, tables = mixed_instance(criterion, beta)
        self.check_against_reference(replace(inst, m=1), tables)

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_tied_copies_match_reference_exactly(self, criterion, beta):
        self.check_against_reference(*tied_instance(criterion, beta))

    @staticmethod
    def check_against_reference(inst, tables):
        criterion = inst.criterion
        horizon, runs, seed = 120, 3, 2024
        burn = 0 if criterion == "discounted" else 12
        for policy in POLICIES:
            res = simulate(inst, policy, horizon, runs, seed=seed, tables=tables, burn_in=burn, record_y=True)
            per_run, freq, y, or_mask, sel = reference_simulate(inst, policy, tables, horizon, runs, seed, burn)
            assert res.per_run.tolist() == per_run, policy
            assert res.activation_freq.tolist() == freq, policy
            assert res.or_mask_trace.sum(axis=1).tolist() == y, policy
            assert res.or_mask_trace.tolist() == or_mask, policy
            assert res.selection_trace.tolist() == sel, policy


def outputs(res):
    return (
        res.per_run.tolist(),
        res.activation_freq.tolist(),
        res.or_mask_trace.tolist(),
        res.selection_trace.tolist(),
    )


class TestStreams:
    """Run r reads child r of SeedSequence(seed) in order, so results depend
    neither on how its draws are blocked nor on the other runs."""

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_block_size_does_not_change_results(self, criterion, beta, monkeypatch):
        inst, tables = mixed_instance(criterion, beta)
        module = importlib.import_module("uoisched.simulate")
        horizon, runs = 60, 4
        slot_draws = 2 * inst.n_bandits * runs
        kw = dict(seed=5, tables=tables, burn_in=0 if criterion == "discounted" else 9, record_y=True)
        for policy in POLICIES:
            default = outputs(simulate(inst, policy, horizon, runs, **kw))
            for slots in (1, 7):
                monkeypatch.setattr(module, "_BLOCK_DOUBLES", slots * slot_draws)
                assert outputs(simulate(inst, policy, horizon, runs, **kw)) == default, (policy, slots)
            monkeypatch.undo()

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_run_results_do_not_depend_on_the_number_of_runs(self, criterion, beta):
        inst, tables = mixed_instance(criterion, beta)
        for policy in POLICIES:
            few = simulate(inst, policy, 80, 3, seed=9, tables=tables, record_y=True)
            many = simulate(inst, policy, 80, 8, seed=9, tables=tables, record_y=True)
            assert many.per_run[:3].tolist() == few.per_run.tolist(), policy
            assert many.selection_trace.tolist() == few.selection_trace.tolist(), policy

    def test_a_range_of_runs_reads_the_same_streams(self):
        seed, runs, sizes = 2 ** 63 + 5, 9, (1, 5, 3)
        whole = RunStreams(seed, runs)
        draws = [whole.draw(j) for j in sizes]
        for k in (0, 1, 4, 8):
            part = RunStreams(seed, runs - k, first=k)
            for j, rows in zip(sizes, draws):
                assert part.draw(j).tolist() == rows[k:].tolist(), (k, j)
        # run r's stream is child r of SeedSequence(seed).spawn, bit for bit
        children = np.random.SeedSequence(seed).spawn(runs)
        spawned = [np.random.Generator(np.random.Philox(child)).random(4).tolist() for child in children]
        assert RunStreams(seed, runs).draw(4).tolist() == spawned

    @pytest.mark.parametrize("seed", [3.7, 3.0, True, np.True_, "3"])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        # int() made 3.7 draw seed 3's runs and True seed 1's
        inst = fig1_instance("average", 1.0)
        with pytest.raises(TypeError, match="seed must be an integer"):
            simulate(inst, "round_robin", 10, 2, seed=seed, truncation_L=4)
        with pytest.raises(TypeError, match="seed must be an integer"):
            simulate(replace(inst, seed=seed), "round_robin", 10, 2, truncation_L=4)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_a_seed_out_of_range_is_rejected(self, seed):
        inst = fig1_instance("average", 1.0)
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            simulate(inst, "round_robin", 10, 2, seed=seed, truncation_L=4)

    def test_a_numpy_integer_seed_is_the_same_python_int(self):
        inst = fig1_instance("average", 1.0)
        a = simulate(inst, "round_robin", 10, 3, seed=np.uint64(2 ** 64 - 1), truncation_L=4)
        b = simulate(inst, "round_robin", 10, 3, seed=2 ** 64 - 1, truncation_L=4)
        assert type(a.seed) is int and a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_neighbouring_seeds_share_no_run(self, criterion, beta):
        inst, tables = mixed_instance(criterion, beta)
        for policy in POLICIES:
            a = simulate(inst, policy, 80, 8, seed=2, tables=tables)
            b = simulate(inst, policy, 80, 8, seed=3, tables=tables)
            assert not set(a.per_run.tolist()) & set(b.per_run.tolist()), policy


def force_parts(monkeypatch, k):
    """Cut every call of at least k runs into k parts, however many CPUs the
    host has (k = 1: never cut)."""
    monkeypatch.setattr(importlib.import_module("uoisched.simulate"), "_PART_BSLOTS", 1 if k > 1 else 10 ** 18)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: k)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def streams_that(monkeypatch, act):
    """Make simulate's RunStreams call act(first) before building the
    streams of the runs from first on, so a part can be made to fail."""
    module = importlib.import_module("uoisched.simulate")

    def streams(seed, runs, first=0):
        act(first)
        return RunStreams(seed, runs, first)

    monkeypatch.setattr(module, "RunStreams", streams)


class TestParts:
    """Runs cut into contiguous ranges, all but the first simulated in forked
    children, give the one-part results exactly, and no child outlives a
    call, whether it succeeds or a part fails."""

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_parts_do_not_change_results(self, criterion, beta, monkeypatch):
        inst, tables = mixed_instance(criterion, beta)
        horizon, runs = 50, 7
        # blocks of 7 slots over all 7 runs; a part sizes its blocks from its
        # own runs, so the cuts 3 + 4 and 2 + 2 + 3 put the block ends
        # elsewhere in every part
        monkeypatch.setattr(importlib.import_module("uoisched.simulate"), "_BLOCK_DOUBLES", 7 * 2 * inst.n_bandits * runs)
        kw = dict(seed=13, tables=tables, burn_in=0 if criterion == "discounted" else 5, record_y=True)
        for m in (1, 2, 3):
            case = replace(inst, m=m)
            for policy in POLICIES:
                force_parts(monkeypatch, 1)
                one = simulate(case, policy, horizon, runs, **kw)
                assert one.parts == 1
                for k in (2, 3):
                    force_parts(monkeypatch, k)
                    res = simulate(case, policy, horizon, runs, **kw)
                    assert res.parts == k
                    assert outputs(res) == outputs(one), (m, policy, k)
                    assert (res.mean, res.stderr) == (one.mean, one.stderr), (m, policy, k)
        assert_no_child_left()

    def test_one_part_without_fork_with_a_live_thread_one_cpu_or_one_run(self, monkeypatch):
        inst, tables = mixed_instance("discounted", 0.9)

        def parts(runs=4):
            return simulate(inst, "gain_index", 20, runs, tables=tables).parts

        force_parts(monkeypatch, 2)
        assert parts() == 2
        assert parts(runs=1) == 1
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "usable_cpus", lambda: 1)
            assert parts() == 1
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert parts() == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert parts() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert parts() == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_children_are_fewer_than_the_usable_cpus(self, cpus, monkeypatch):
        inst, tables = mixed_instance("discounted", 0.9)
        monkeypatch.setattr(importlib.import_module("uoisched.simulate"), "_PART_BSLOTS", 1)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        forks = []
        fork = parallel._fork
        monkeypatch.setattr(parallel, "_fork", lambda: forks.append(1) or fork())
        res = simulate(inst, "myopic", 20, 8, tables=tables)
        assert res.parts == cpus and len(forks) == cpus - 1
        assert_no_child_left()

    def test_a_child_error_is_raised_in_the_parent(self, monkeypatch):
        inst, tables = mixed_instance("discounted", 0.9)
        force_parts(monkeypatch, 3)

        def fail_in_children(first):
            if first > 0:
                raise ValueError(f"no streams for runs from {first}")

        streams_that(monkeypatch, fail_in_children)
        with pytest.raises(ValueError, match=r"no streams for runs from 2$") as caught:
            simulate(inst, "gain_index", 20, 6, tables=tables)
        # the first child's error is raised, with its traceback as the cause
        assert isinstance(caught.value.__cause__, parallel.ChildTraceback)
        assert "fail_in_children" in str(caught.value.__cause__)
        assert_no_child_left()

    @pytest.mark.parametrize("how", ["killed", "exit"])
    def test_a_child_that_ends_without_a_result_is_named(self, how, monkeypatch):
        inst, tables = mixed_instance("discounted", 0.9)
        force_parts(monkeypatch, 2)

        def end_children(first):
            if first > 0 and how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            elif first > 0:
                os._exit(3)

        streams_that(monkeypatch, end_children)
        message = r"signal 9 \(Killed\)" if how == "killed" else "exit status 3"
        with pytest.raises(RuntimeError, match=rf"part 2\.\.3 ended by {message} without a result"):
            simulate(inst, "gain_index", 20, 4, tables=tables)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_an_error_in_the_parent_kills_the_children(self, error, monkeypatch):
        inst, tables = mixed_instance("discounted", 0.9)
        force_parts(monkeypatch, 3)

        def fail_in_parent(first):
            if first == 0:
                raise error("the parent's own part failed")
            time.sleep(60)  # the children would outlive the call unless killed

        streams_that(monkeypatch, fail_in_parent)
        t0 = time.perf_counter()
        with pytest.raises(error, match="the parent's own part failed"):
            simulate(inst, "gain_index", 20, 6, tables=tables)
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()


def force_segments(monkeypatch, k, lanes):
    """Make every block of at least k slots speculate with exactly k segments
    (k = 1: never speculate)."""
    module = importlib.import_module("uoisched.simulate")
    monkeypatch.setattr(module, "_SEGMENT_SLOTS", 1)
    monkeypatch.setattr(module, "_SEGMENT_LANES", k * lanes)
    monkeypatch.setattr(module, "_MIN_SEGMENTS", 2)


class TestSpeculation:
    """Walks cut into time segments, run in lockstep from guessed starts and
    repaired, give the slot-by-slot results exactly."""

    @pytest.mark.parametrize("make", [mixed_instance, tied_instance, m10_instance])
    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_segments_do_not_change_results(self, make, criterion, beta, monkeypatch):
        inst, tables = make(criterion, beta)
        runs, block = 4, 61
        # two blocks of 61 slots: with k = 2, 3 and 7 segments of 31, 21 and
        # 9 slots the last segment is shorter than the others
        monkeypatch.setattr(importlib.import_module("uoisched.simulate"), "_BLOCK_DOUBLES", block * 2 * inst.n_bandits * runs)
        kw = dict(seed=11, tables=tables, burn_in=0 if criterion == "discounted" else 9, record_y=True)
        speculated = False
        for m in (1, 2, 3):
            case = replace(inst, m=m)
            for policy in POLICIES:
                force_segments(monkeypatch, 1, inst.n_bandits * runs)
                plain = simulate(case, policy, 2 * block, runs, **kw)
                assert plain.walk_steps == 2 * 2 * block
                for k in (2, 3, 7):
                    force_segments(monkeypatch, k, inst.n_bandits * runs)
                    res = simulate(case, policy, 2 * block, runs, **kw)
                    assert outputs(res) == outputs(plain), (m, policy, k)
                    speculated |= res.walk_steps < plain.walk_steps
        assert speculated

    @staticmethod
    def reference_walk(states, data):
        """The test walk slot by slot: an age that a 1 in the data resets."""
        for j, d in enumerate(data):
            states[j + 1] = np.where(d == 1, 0, states[j] + 1)

    @staticmethod
    def segment_walk(data, start, k, speculate=True, pad=0):
        """`_walk` over the (n, M, runs) data cut into k segments as
        `simulate` cuts a block: the data laid out segment-major, the last
        segment's padded offsets holding `pad`.  Returns the walk's (n + 1,
        M, runs) states in slot order, its steps and whether it paid."""
        n = data.shape[0]
        seg = -(-n // k)
        K = -(-n // seg)
        padded = np.full((K * seg,) + data.shape[1:], pad, dtype=data.dtype)
        padded[:n] = data
        by_offset = padded.reshape((K, seg) + data.shape[1:]).transpose(1, 2, 0, 3)
        states = np.empty((seg + 2, data.shape[1], K, data.shape[2]), dtype=np.int64)
        states[0, :, 0] = start

        def step(o, now, out):
            np.copyto(out, np.where(by_offset[o] == 1, 0, now + 1))

        steps, paid = _walk(states, n, step, speculate)
        in_order = states[:seg].transpose(2, 0, 1, 3).reshape((K * seg,) + data.shape[1:])[:n]
        return np.concatenate([in_order, states[n - (K - 1) * seg, None, :, K - 1]]), steps, paid

    @pytest.mark.parametrize(
        "pattern, fewest, most, pays",
        [
            # frequent resets: round 1 settles the block within the 9 steps
            # of round 0 and its own 9
            ("often", 10, 18, True),
            # segment 2 of 7 (slots 18..26) holds no reset, so round 1 does
            # not settle, and round 2 settles once segment 3 has met its
            # stored walk at its first resets
            ("one quiet segment", 19, 26, True),
            # segments 2 and 3 (slots 18..35) are quiet: round 3 settles at
            # segment 4's first resets, 29 steps
            ("two quiet segments", 28, 36, True),
            # segments 2..4 (slots 18..44) are quiet: round 4 settles at
            # segment 5's first resets, 38 steps
            ("three quiet segments", 37, 45, True),
            # segment 1 (slots 9..17) is quiet, so in round 1 it never meets
            # its walk from the guess, which is no sign of slow mixing:
            # round 2 settles at segment 2's first resets, 21 steps
            ("quiet segment 1", 19, 26, True),
            # segments 1 and 2 (slots 9..26) are quiet: segment 2 misses its
            # stored walk in rounds 1 and 2, so the walk gives up and
            # finishes its rounds without comparing, although round 3 would
            # settle after 29 steps
            ("quiet segments 1 and 2", 60, 60, False),
            # no reset after slot 0: the same give-up
            ("never", 60, 60, False),
        ],
    )
    def test_walk_repairs_exactly(self, pattern, fewest, most, pays):
        n, k = 60, 7  # 7 segments of 9 slots, the last of 6
        rng = np.random.default_rng(5)
        data = (rng.random((n, 1, 3)) < 0.5).astype(np.int64)
        quiet = {
            "one quiet segment": slice(18, 27), "two quiet segments": slice(18, 36),
            "three quiet segments": slice(18, 45), "quiet segment 1": slice(9, 18),
            "quiet segments 1 and 2": slice(9, 27), "never": slice(1, n),
        }
        if pattern in quiet:
            data[quiet[pattern]] = 0
        expected = np.zeros((n + 1, 1, 3), dtype=np.int64)
        self.reference_walk(expected, data)
        states, steps, paid = self.segment_walk(data, 0, k)
        assert states.tolist() == expected.tolist()
        assert fewest <= steps <= most and paid == pays

    def test_a_short_last_segment_pads_out_of_the_meet_test(self):
        """20 slots in 3 segments of 7, 7 and 6.  Segment 0 is quiet, so in
        round 1 segment 1 starts 7 slots older than its guess and meets its
        stored walk only at its reset at offset 6 (slot 13), while segment
        2, quiet too, never meets its walk from segment 1's guessed end.  At
        offset 6 segment 2 has ended: its padded offset would still differ
        from its stored walk, but the walk stops there, after 7 + 7 steps,
        as a walk over the slots alone does."""
        n, k = 20, 3
        data = np.zeros((n, 1, 2), dtype=np.int64)
        data[13] = 1
        expected = np.full((n + 1, 1, 2), 5, dtype=np.int64)
        self.reference_walk(expected, data)
        states, steps, paid = self.segment_walk(data, 5, k)
        assert states.tolist() == expected.tolist()
        assert (steps, paid) == (14, True)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 90), cut=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
        speculate=st.booleans(), pad=st.integers(0, 1),
    )
    def test_walk_matches_the_slot_by_slot_walk_for_any_cut(self, n, cut, p, seed, speculate, pad):
        k = 1 + int(cut * (n - 1))
        rng = np.random.default_rng(seed)
        data = (rng.random((n, 2, 3)) < p).astype(np.int64)
        start = rng.integers(0, 5, size=(2, 3))
        expected = np.empty((n + 1, 2, 3), dtype=np.int64)
        expected[0] = start
        self.reference_walk(expected, data)
        states, steps, paid = self.segment_walk(data, start, k, speculate, pad)
        assert states.tolist() == expected.tolist()
        if k == 1:
            assert (steps, paid) == (n, True)
        elif not speculate:
            assert (steps, paid) == (n, False)
        else:
            assert steps < n and paid or steps == n


def sticky_instance():
    """Two sources that switch state once in 333 to 1,000 slots, so true
    states started apart rarely meet: auto truncation gives L = 6,555 and
    2,655.  Index tables at charge 0.3."""
    bandits = [
        BanditSpec(validate_chain([[0.999, 0.001], [0.001, 0.999]]), 0.9, "p1"),
        BanditSpec(validate_chain([[0.998, 0.003], [0.002, 0.997]]), 0.8, "p2"),
    ]
    mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]
    assert [mdp.truncation_L for mdp in mdps] == [6555, 2655]
    return RMABInstance(bandits, 1, "average", 1.0, seed=4), [gain_indices_average(mdp, 0.3) for mdp in mdps]


class TestWalkWork:
    def test_slow_mixing_sources_cost_about_one_slot_by_slot_walk(self, monkeypatch):
        """The true-state walk gives up in the first block and walks the
        later blocks without comparing, in the same 15-segment layout as
        the belief walk, which still speculates and pays.  The outputs are
        those of the call that never speculates."""
        inst, tables = sticky_instance()
        module = importlib.import_module("uoisched.simulate")
        horizon, runs = 4000, 50
        walk = module._walk
        for policy in POLICIES:
            calls = []

            def recorded(S, n, step, speculate):
                steps, paid = walk(S, n, step, speculate)
                calls.append((S.shape[2], speculate, steps))
                return steps, paid

            monkeypatch.setattr(module, "_walk", recorded)
            res = simulate(inst, policy, horizon, runs, tables=tables, record_y=True)
            monkeypatch.undo()
            assert calls[0::2] == [(15, True, 1000)] + [(15, False, 1000)] * 3, policy
            assert all(K == 15 and speculate and steps < 250 for K, speculate, steps in calls[1::2]), policy
            monkeypatch.setattr(module, "_MIN_SEGMENTS", 10 ** 9)
            plain = simulate(inst, policy, horizon, runs, tables=tables, record_y=True)
            monkeypatch.undo()
            assert outputs(res) == outputs(plain), policy
            assert plain.walk_steps == 2 * horizon
            assert res.walk_steps <= 1.25 * plain.walk_steps, policy

    def test_sample_config_walks_take_a_tenth_of_the_slots(self, monkeypatch):
        """On the average sample config the repairs settle within a few
        slots, so both walks together take fewer than a tenth of the 2T steps
        a slot-by-slot walk takes, in one part and summed over two.  The step
        counts are pinned: a change in how the walks speculate or repair
        shows here first.  Two parts of 25 runs speculate over their own
        lanes, so their steps differ from one part's."""
        prep = prepare(load_config(CONFIG_DIR / "two_sources_average.json"))
        config = prep.config
        tables = compute_index_tables(prep).tables
        pinned = {"gain_index": 3352, "myopic": 2545, "round_robin": 2619}
        pinned_two_parts = {"gain_index": 3401, "myopic": 2507, "round_robin": 2571}
        for policy in POLICIES:
            args = (config.build_instance(), policy, config.horizon, config.runs)
            kw = dict(
                tables=tables if policy == "gain_index" else None, truncation_L=prep.l_per_bandit, burn_in=config.burn_in
            )
            force_parts(monkeypatch, 1)
            res = simulate(*args, **kw)
            force_parts(monkeypatch, 2)
            two = simulate(*args, **kw)
            assert (res.parts, two.parts) == (1, 2)
            assert two.per_run.tolist() == res.per_run.tolist(), policy
            assert two.activation_freq.tolist() == res.activation_freq.tolist(), policy
            assert res.walk_steps == pinned[policy], policy
            assert two.walk_steps == pinned_two_parts[policy], policy
            assert max(res.walk_steps, two.walk_steps) < 0.1 * 2 * config.horizon, policy

    def test_a_miss_in_round_1_alone_keeps_speculating(self, monkeypatch):
        """At seed 0 a gain_index belief walk on the average sample config
        has a block whose segment 1 misses its walk from the guess in round
        1, and round 2 settles it.  Giving up there would walk the rest of
        the call slot by slot: 19,171 steps instead of 3,421 in one part
        (3,407 in two)."""
        prep = prepare(load_config(CONFIG_DIR / "two_sources_average.json"))
        config = prep.config
        args = (config.build_instance(), "gain_index", config.horizon, config.runs)
        kw = dict(seed=0, tables=compute_index_tables(prep).tables, burn_in=config.burn_in)
        force_parts(monkeypatch, 1)
        res = simulate(*args, **kw)
        force_parts(monkeypatch, 2)
        two = simulate(*args, **kw)
        assert (res.parts, two.parts) == (1, 2)
        assert two.per_run.tolist() == res.per_run.tolist()
        assert res.walk_steps == 3421
        assert two.walk_steps == 3407
        assert two.walk_steps < 0.1 * 2 * config.horizon


CONFIG_DIR =Path(__file__).resolve().parent.parent / "configs"

# result_digest of 4,000 slots and 50 runs on each sample config, recorded
# with the slot-by-slot simulator that walked true states and beliefs
# together (one numpy gather per quantity per slot).
PINNED = {
    ("two_sources_average", "gain_index"): "8be6024bc5e2daf28beca31f1e9bc24c885cbf13262ede02028a287ea1982e49",
    ("two_sources_average", "myopic"): "2e49afce50b131329ce00170113626f3616bf089caa60a8eb6afe764456ba994",
    ("two_sources_average", "round_robin"): "46be5a2da4bea633123fb0a9d460dc6255fb09e17e38298ccdb9ac0aa224ab8f",
    ("two_sources_discounted", "gain_index"): "229b5ca3d625e4311ee29cab0a87edd9ac908993b83b18e6bc562972c953afb1",
    ("two_sources_discounted", "myopic"): "b1cbfc46e463ae6f6fc46736475a91c52f60e2a44c5cded8e3da6dd853f93895",
    ("two_sources_discounted", "round_robin"): "3c6a83c0f385f25b0e79c2d6902a77a2032308ef996a270b98972b6a1cdb3aff",
}

# result_digest of 1,000 slots and 50 runs on `m10_instance`, recorded with
# the true-state step that counted the exceeded cdf entries by one reduction
PINNED_M10 = {
    ("discounted", "gain_index"): "42bdb4e60aa1bc8fa7b3b79225de9d6ba211ccd401091841ac39ae77d405613b",
    ("discounted", "myopic"): "9af585e6f04f93c92be789db3b4e6d24aa38eda86dd616c34870c0bcbcd0daa9",
    ("discounted", "round_robin"): "73be676d2c4a9f022c123e0700f59b7e115d9ed4bb4d2c58c2073e67384750f6",
    ("average", "gain_index"): "5330e83b0acf6f0a96f5a5b9beb30e959378f6820f0d44d73823aa2e1a2b0bea",
    ("average", "myopic"): "b2b3a11c24ea71cf46a2cdab380b44155127829ec84d3f0652a4ee82ff0802f6",
    ("average", "round_robin"): "2436ace604398289b6906a7f75a45c20160c86ef5e5134edf5f2e6ef9b9b8367",
}


def result_digest(res) -> str:
    """SHA-256 of the result document, then of run 0's traces if recorded."""
    h = hashlib.sha256(json.dumps(res.to_json_dict(), sort_keys=True).encode())
    if res.or_mask_trace is not None:
        h.update(res.or_mask_trace.tobytes())
        h.update(res.selection_trace.astype("<i8").tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", ["two_sources_average", "two_sources_discounted"])
    def test_outputs_across_block_boundaries(self, name):
        prep = prepare(load_config(CONFIG_DIR / f"{name}.json"))
        config = prep.config
        tables = compute_index_tables(prep).tables
        horizon, runs = 4000, 50
        block = _BLOCK_DOUBLES // (2 * len(config.bandits) * runs)
        assert horizon > 3 * block  # three block boundaries at least
        for policy in POLICIES:
            gain = policy == "gain_index"
            res = simulate(
                config.build_instance(), policy, horizon, runs, seed=config.seed, tables=tables if gain else None,
                truncation_L=prep.l_per_bandit, burn_in=config.burn_in, record_y=gain,
            )
            assert result_digest(res) == PINNED[name, policy], policy

    @pytest.mark.parametrize("criterion,beta", CRITERIA)
    def test_many_channels_and_wider_chains(self, criterion, beta):
        """m = 3 selects with a partition, and chains of up to four states
        take every padded cdf row."""
        inst, tables = m10_instance(criterion, beta)
        horizon, runs = 1000, 50
        block = _BLOCK_DOUBLES // (2 * inst.n_bandits * runs)
        assert horizon > 3 * block  # three block boundaries at least
        for policy in POLICIES:
            res = simulate(inst, policy, horizon, runs, tables=tables, record_y=policy == "gain_index")
            assert result_digest(res) == PINNED_M10[criterion, policy], policy


class TestMemory:
    # tracemalloc peak in bytes of the gain_index call below at m = 3 (M=10,
    # N in {2, 3, 4}, 50 runs, 200 slots in one block) with the slot-by-slot
    # simulator, whose largest live set was a block's draws (1.6 MB) and
    # their transposed copy; every policy at m = 1 and 3 stays under it
    PEAK_BEFORE = 3_316_735
    # tracemalloc peaks in bytes of the average sample config calls in
    # `test_segments_take_no_more_memory` with the slot-by-slot walks, which
    # gathered each block's reset states up front (800 kB)
    PEAK_SLOT_BY_SLOT = {"gain_index": 4_906_043, "myopic": 4_904_355, "round_robin": 4_802_968}

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_peak_stays_within_the_draw_buffers(self, policy, m):
        inst, tables = m10_instance("average", 1.0)
        inst = replace(inst, m=m)
        simulate(inst, policy, 200, 50, tables=tables)  # import and cache effects out of the way
        tracemalloc.start()
        try:
            simulate(inst, policy, 200, 50, tables=tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BEFORE

    @pytest.mark.parametrize("policy", POLICIES)
    def test_segments_take_no_more_memory(self, policy, monkeypatch):
        """On the average sample config (blocks of 1,000 slots over 100
        lanes), both the speculating call and the call with speculation
        switched off peak within the slot-by-slot walks' PEAK_SLOT_BY_SLOT."""
        prep = prepare(load_config(CONFIG_DIR / "two_sources_average.json"))
        config = prep.config
        tables = compute_index_tables(prep).tables if policy == "gain_index" else None
        module = importlib.import_module("uoisched.simulate")

        def peak():
            args = (config.build_instance(), policy, 4000, 50)
            kw = dict(tables=tables, truncation_L=prep.l_per_bandit, burn_in=config.burn_in)
            simulate(*args, **kw)
            tracemalloc.start()
            try:
                res = simulate(*args, **kw)
                return tracemalloc.get_traced_memory()[1], res.walk_steps
            finally:
                tracemalloc.stop()

        segmented, steps = peak()
        monkeypatch.setattr(module, "_MIN_SEGMENTS", 10 ** 9)
        plain, plain_steps = peak()
        assert steps < plain_steps
        assert segmented <= self.PEAK_SLOT_BY_SLOT[policy]
        assert plain <= self.PEAK_SLOT_BY_SLOT[policy]


    @pytest.mark.parametrize("policy", ["gain_index", "round_robin"])
    def test_a_speculating_walk_allocates_no_array_per_step(self, policy):
        """Once their step functions are built, both walks of a speculating
        block (m = 1 for gain_index) allocate nothing per step: the peak,
        the walk's per-call views and its bool meet-test buffer, stays below
        one (M, K, runs) int64 slab.  512 runs make the slab large against
        those per-call objects, and a slab-sized temporary in any step
        would exceed it."""
        module = importlib.import_module("uoisched.simulate")
        rng = np.random.default_rng(8)
        bandits = [random_bandit(rng, k, f"b{k}") for k in (2, 3)]
        mdps = [build_truncated(b, 8, 1.0) for b in bandits]
        M, K, seg, runs = 2, 8, 64, 512
        n = K * seg - 5  # the last segment is shorter
        offset = np.array([0, mdps[0].n_states])
        transition_cdf = module._padded_cdf([b.chain.transition.T for b in bandits], 3)
        passive_next = np.concatenate([mdp.passive_next + off for mdp, off in zip(mdps, offset)])
        reset = np.concatenate([mdp.reset_states + off for mdp, off in zip(mdps, offset)])
        act = rng.random((seg, M, K, runs)) < 0.6
        if policy == "round_robin":
            chosen, m = np.arange(seg * M * K).reshape(seg, M, K, 1) % M == 0, None
            act &= chosen
        else:
            chosen, m = np.empty_like(act), 1
        X = np.empty((seg + 2, M, K, runs), dtype=np.int64)
        X[0, :, 0] = np.array([0, 2])[:, None]
        B = np.empty_like(X)
        B[0, :, 0] = offset[:, None]
        slab = M * K * runs * 8
        for S, step in (
            (X, module._true_state_step(rng.random((seg, M, K, runs)), transition_cdf, np.array([0, 2]))),
            (B, module._belief_step(X, act, reset, passive_next, m, chosen)),
        ):
            _walk(S, n, step, True)  # caches out of the way
            tracemalloc.start()
            try:
                steps, paid = _walk(S, n, step, True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert paid and steps < n
            assert peak < slab


def small_case(seed, n_bandits, criterion):
    """A random instance with N in {2, 3}, L in 1..6, labels out of bandit
    order, and index tables at a random charge."""
    rng = np.random.default_rng(seed)
    beta = 0.9 if criterion == "discounted" else 1.0
    labels = rng.permutation(n_bandits)
    bandits = [random_bandit(rng, int(rng.integers(2, 4)), f"s{labels[i]}") for i in range(n_bandits)]
    mdps = [build_truncated(b, int(rng.integers(1, 7)), beta) for b in bandits]
    lam = float(rng.uniform(0.0, 1.0))
    maker = gain_indices_discounted if criterion == "discounted" else gain_indices_average
    tables = [maker(mdp, lam) for mdp in mdps]
    m = int(rng.integers(1, n_bandits))
    return RMABInstance(bandits, m, criterion, beta, seed=seed), tables


class TestSlotProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n_bandits=st.integers(2, 5),
        criterion=st.sampled_from(["discounted", "average"]),
    )
    def test_every_slot_serves_exactly_m(self, seed, n_bandits, criterion):
        inst, tables = small_case(seed, n_bandits, criterion)
        horizon, runs = 40, 3
        for policy in POLICIES:
            res = simulate(inst, policy, horizon, runs, tables=tables, record_y=True)
            # run 0 slot by slot, then every run in aggregate
            assert res.selection_trace.shape == (horizon, inst.m)
            for row in res.selection_trace.tolist():
                assert len(set(row)) == inst.m and 0 <= min(row) and max(row) < n_bandits
            served = np.rint(res.activation_freq * runs * horizon)
            assert served.sum() == inst.m * runs * horizon, policy

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_bandits=st.integers(2, 5))
    def test_every_slot_uoi_within_range(self, seed, n_bandits):
        # an average-cost horizon-t run with t - 1 slots of burn-in returns
        # each run's UoI in slot t
        inst, tables = small_case(seed, n_bandits, "average")
        cap = sum(np.log2(b.chain.n_states) for b in inst.bandits)
        for policy in POLICIES:
            for t in range(1, 13):
                res = simulate(inst, policy, t, 3, tables=tables, burn_in=t - 1)
                assert res.per_run.min() >= 0.0 and res.per_run.max() <= cap + 1e-12, (policy, t)


class TestPolicyQuality:
    def test_gain_index_beats_baselines_on_most_instances(self):
        rng = np.random.default_rng(4040)
        wins_myopic = wins_rr = 0
        n_inst = 5
        for i in range(n_inst):
            bandits = [random_bandit(rng, 2, f"b{j}") for j in range(5)]
            mdps = [build_truncated(b, choose_truncation(b, 1e-5)[0], 1.0) for b in bandits]
            lam = gradient_search(make_problem(mdps, 2, "average")).lambda_star
            tables = [gain_indices_average(m, lam) for m in mdps]
            inst = RMABInstance(bandits, 2, "average", 1.0, seed=600 + i)
            kw = dict(horizon=3000, runs=12)
            g = simulate(inst, "gain_index", tables=tables, **kw)
            my = simulate(inst, "myopic", truncation_L=[m.truncation_L for m in mdps], **kw)
            rr = simulate(inst, "round_robin", truncation_L=[m.truncation_L for m in mdps], **kw)
            se = max(g.stderr, my.stderr, rr.stderr)
            wins_myopic += g.mean <= my.mean + 2 * se
            wins_rr += g.mean <= rr.mean + 2 * se
        assert wins_myopic >= 4 and wins_rr >= 4

    def test_sandwich_cost_above_relaxed_bound(self):
        tables, mdps, lam = fig1_tables("average", 1.0)
        problem = make_problem(mdps, 1, "average")
        bound = objective_value(problem, lam)
        inst = fig1_instance("average", 1.0, seed=17)
        res = simulate(inst, "gain_index", horizon=5000, runs=10, tables=tables)
        assert res.mean >= bound - 3 * res.stderr

    def test_myopic_ranks_by_current_entropy(self):
        # two constant-entropy sources vs one live source: myopic must always
        # pick the live source once its belief entropy exceeds the constants'
        chain = validate_chain(FIG1)
        bandits = [
            BanditSpec(constant_entropy_chain(), 1.0, "flat1"),
            BanditSpec(chain, 1.0, "live"),
        ]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=4)
        res = simulate(inst, "myopic", horizon=2000, runs=4, truncation_L=20)
        # H(flat) = 1 always; live UoI <= H([0.3,0.7]) = 0.88 < 1, so myopic
        # always transmits the flat source
        assert res.activation_freq[0] == pytest.approx(1.0, abs=1e-12)


class TestYTrace:
    def test_or_activation_counts_recorded(self):
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0, seed=12)
        res = simulate(inst, "gain_index", horizon=600, runs=3, tables=tables, record_y=True)
        assert res.or_mask_trace is not None and res.or_mask_trace.shape == (600, inst.n_bandits)
        y = res.or_mask_trace.sum(axis=1)
        assert y.min() >= 0 and y.max() <= 2

    def test_top_m_matches_or_set_when_budget_met(self):
        # on every logged slot where the OR rule activates exactly m bandits,
        # the top-m index selection is the same set
        tables, _, _ = fig1_tables("average", 1.0)
        inst = fig1_instance("average", 1.0, seed=13)
        res = simulate(inst, "gain_index", horizon=2000, runs=2, tables=tables, record_y=True)
        hits = np.flatnonzero(res.or_mask_trace.sum(axis=1) == inst.m)
        assert len(hits) > 50  # the instance visits the exact-budget slots often
        for t in hits:
            or_set = set(np.flatnonzero(res.or_mask_trace[t]))
            assert set(res.selection_trace[t]) == or_set

    def test_concentration_at_moderate_population(self):
        rng = np.random.default_rng(2718)
        classes = [random_bandit(rng, 2, "c1", rho=1.0), random_bandit(rng, 2, "c2", rho=0.8)]
        mdps = [build_truncated(b, 14, 1.0) for b in classes]
        M, m = 24, 12
        reps = [mdps[i % 2] for i in range(M)]
        lam = gradient_search(make_problem(reps, m, "average")).lambda_star
        base = [gain_indices_average(mdp, lam) for mdp in mdps]
        bandits, tables = [], []
        for i in range(M):
            src = classes[i % 2]
            lbl = f"{src.label}-{i}"
            bandits.append(BanditSpec(src.chain, src.success_prob, lbl))
            t = base[i % 2]
            tables.append(
                type(t)(lbl, t.criterion, t.lambda_star, t.indices, t.values, t.beliefs, t.truncation_L)
            )
        inst = RMABInstance(bandits, m, "average", 1.0, seed=55)
        res = simulate(inst, "gain_index", horizon=3000, runs=2, tables=tables, record_y=True)
        y = res.or_mask_trace[300:].sum(axis=1) / M
        assert y.std() <= 1.1 / np.sqrt(4 * M)


class TestAsymptoticSweep:
    def _classes(self, L, beta=1.0):
        chain_a = validate_chain(FIG1)
        chain_b = validate_chain([[0.9, 0.35], [0.1, 0.65]])
        return [
            (build_truncated(BanditSpec(chain_a, 1.0, "ca"), L, beta), 0.5),
            (build_truncated(BanditSpec(chain_b, 0.8, "cb"), L, beta), 0.5),
        ]

    def test_gap_shrinks_with_population(self):
        sweep = asymptotic_sweep(
            self._classes(16),
            alpha=0.5,
            m_list=[4, 16],
            runs=8,
            seed=1234,
            horizon=4000,
        )
        gaps = {r.n_bandits: r.gap for r in sweep.rows}
        assert gaps[16] < gaps[4]

    def test_bound_identical_across_population(self):
        sweep = asymptotic_sweep(
            self._classes(12),
            alpha=0.5,
            m_list=[4, 8],
            runs=4,
            seed=9,
            horizon=1500,
        )
        bounds = [r.per_bandit_bound for r in sweep.rows]
        assert bounds[0] == pytest.approx(bounds[1], abs=1e-12)

    def test_non_integral_channel_count_rejected(self):
        with pytest.raises(ValueError, match="not integral"):
            asymptotic_sweep(
                self._classes(8),
                alpha=0.5,
                m_list=[5],
                runs=2,
                seed=1,
                horizon=500,
            )

    @pytest.mark.parametrize("criterion, beta", [("discounted", 0.9), ("average", 1.0)])
    def test_bound_is_the_dual_value_at_lambda_star(self, criterion, beta):
        # unequal counts, so a class read off the wrong batch entry shows
        classes = [(b, q) for (b, _), q in zip(self._classes(10, beta), (0.25, 0.75))]
        sweep = asymptotic_sweep(
            classes,
            alpha=0.5,
            m_list=[4],
            runs=2,
            seed=3,
            horizon=200,
        )
        row = sweep.rows[0]
        mdps = [build_truncated(b.bandit, 10, beta) for (b, _), c in zip(classes, row.class_counts) for _ in range(c)]
        dual = objective_value(make_problem(mdps, row.m, criterion), sweep.lambda_star)
        assert row.per_bandit_bound == pytest.approx(dual / 4, rel=1e-12, abs=1e-14)

    def test_class_absent_from_a_population_rejected(self):
        # at M = 4 the mix [0.9, 0.1] rounds to [4, 0], so a lambda* solved
        # there would leave class cb out of the bound at M = 40
        (a, _), (b, _) = self._classes(8)
        with pytest.raises(ValueError, match=r"class 'cb' has no bandit at M = 4\b"):
            asymptotic_sweep(
                [(a, 0.9), (b, 0.1)],
                alpha=0.5,
                m_list=[40, 4],
                runs=2,
                seed=1,
                horizon=500,
            )

    @pytest.mark.parametrize(
        "which, m_list",
        [("population sizes", [4, 2, 4]), ("class labels", [2, 4])],
    )
    def test_repeated_input_rejected_before_the_search(self, monkeypatch, which, m_list):
        classes = self._classes(8)
        if which == "class labels":
            classes = [(classes[0][0], 0.5)] * 2
        module = importlib.import_module("uoisched.simulate")
        monkeypatch.setattr(module, "gradient_search", lambda problem: pytest.fail("searched"))
        with pytest.raises(ValueError, match=f"{which} must be unique"):
            asymptotic_sweep(classes, alpha=0.5, m_list=m_list, runs=2, seed=1, horizon=500)

    @pytest.mark.parametrize("m_list", [[-2, 4], [0, 4], [1, 4], []])
    def test_population_below_two_rejected_before_the_search(self, monkeypatch, m_list):
        # a negative M would give negative class counts and an empty batch
        module = importlib.import_module("uoisched.simulate")
        monkeypatch.setattr(module, "gradient_search", lambda problem: pytest.fail("searched"))
        message = f"population sizes must be at least 2, got {m_list}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            asymptotic_sweep(self._classes(8), alpha=0.5, m_list=m_list, runs=2, seed=1, horizon=500)

    def test_mixed_discounts_rejected(self):
        (a, _), _ = self._classes(8, 0.9)
        (_, _), (b, _) = self._classes(8, 1.0)
        with pytest.raises(ValueError, match="share one discount"):
            asymptotic_sweep([(a, 0.5), (b, 0.5)], alpha=0.5, m_list=[2], runs=2, seed=1, horizon=500)

    def test_discounted_variant_runs(self):
        sweep = asymptotic_sweep(
            self._classes(16, 0.9),
            alpha=0.5,
            m_list=[4],
            runs=16,
            seed=77,
        )
        row = sweep.rows[0]
        assert row.per_bandit_cost >= row.per_bandit_bound - 3 * row.per_bandit_stderr
