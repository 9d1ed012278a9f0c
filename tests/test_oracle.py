import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from uoisched import oracle
from uoisched import (
    BanditSpec,
    ChainSpec,
    NoConvergence,
    RMABInstance,
    StateSpaceTooLarge,
    build_joint,
    build_truncated,
    choose_truncation,
    discounted_horizon,
    gain_indices_average,
    gain_indices_discounted,
    gradient_search,
    joint_solve_average,
    joint_solve_discounted,
    make_problem,
    objective_value,
    policy_iteration_discounted,
    simulate,
    validate_chain,
)
from uoisched.config import load_config
from uoisched.workflows import prepare

from conftest import BAD_INITIAL_STATES, FIG1, discounted_sample, random_bandit


def cut_into(monkeypatch, blocks: int) -> None:
    """Make every joint with at least two rows per block cut into `blocks` row blocks."""
    monkeypatch.setattr(oracle, "_PART_STATES", 1)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: blocks)


def zero_entropy_chain():
    t = np.array([[1.0, 1.0], [0.0, 0.0]])
    return ChainSpec(n_states=2, transition=t, equilibrium=np.array([1.0, 0.0]))


def fig1_pair(beta, L=12, rho=1.0):
    chain = validate_chain(FIG1)
    bandits = [BanditSpec(chain, rho, "a"), BanditSpec(chain, rho, "b")]
    return bandits, [build_truncated(b, L, beta) for b in bandits]


def mixed_triple(beta, rhos, seed=11):
    """Three bandits with N = 2, 3, 4, different depths and the given success probabilities."""
    rng = np.random.default_rng(seed)
    return [
        build_truncated(random_bandit(rng, n, f"b{n}", rho=rho), L, beta)
        for n, L, rho in zip((2, 3, 4), (5, 3, 4), rhos)
    ]


def csr_q_values(joint, v, beta):
    """(actions, n_joint) q-values from the per-action CSR matrices."""
    return np.array([joint.cost + beta * (p @ v) for p in joint.transitions])


def csr_value_iteration(mdps, m, beta, tol):
    """Plain CSR value iteration (discounted: stopped once MacQueen's bracket
    beta/(1-beta) [min d, max d] is at most tol wide, then shifted to its
    midpoint) or damped relative value iteration (beta = 1):
    (sweeps, values, policy, q-values of the last sweep)."""
    joint = build_joint(mdps, m)
    v = np.zeros(joint.n_joint)
    for sweeps in range(1, 100_000):
        q = csr_q_values(joint, v, beta)
        tv = q.min(axis=0)
        d = tv - v
        if beta < 1.0:
            scale = beta / (1.0 - beta)
            low, high = scale * d.min(), scale * d.max()
            if high - low <= tol:
                return sweeps, tv + 0.5 * (low + high), q.argmin(axis=0), q
            v = tv
        else:
            if d.max() - d.min() <= tol:
                return sweeps, v - v[0], q.argmin(axis=0), q
            v = 0.5 * (v + tv)
            v -= v[0]
    raise AssertionError("reference iteration did not converge")


class TestBuildJoint:
    def test_single_bandit_rejected(self):
        _, mdps = fig1_pair(0.9)
        with pytest.raises(ValueError):
            build_joint(mdps[:1], 1)

    def test_state_count_and_rows(self):
        _, mdps = fig1_pair(0.9, L=4)
        joint = build_joint(mdps, 1)
        assert joint.n_joint == 9 * 9
        assert [tuple(a) for a in joint.actions] == [(0,), (1,)]
        for p in joint.transitions:
            sums = np.asarray(p.sum(axis=1)).ravel()
            assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_cost_is_sum_of_entropies(self):
        _, mdps = fig1_pair(0.9, L=3)
        joint = build_joint(mdps, 1)
        sid = joint.joint_index([2, 5])
        expected = mdps[0].costs_passive[2] + mdps[1].costs_passive[5]
        assert joint.cost[sid] == pytest.approx(expected, abs=1e-14)

    def test_cap_enforced(self):
        _, mdps = fig1_pair(0.9, L=40)
        with pytest.raises(StateSpaceTooLarge) as err:
            build_joint(mdps, 1, cap=1000)
        assert err.value.size == 81 * 81 * 2

    def test_size_past_int64_is_rejected_before_any_array_work(self, monkeypatch):
        # 65**11 overflows int64; the size check must use exact integers
        chain = validate_chain(FIG1)
        mdps = [build_truncated(BanditSpec(chain, 1.0, f"b{i}"), 32, 0.9) for i in range(11)]

        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the size check")

        monkeypatch.setattr(oracle, "np", NoArrays())
        with pytest.raises(StateSpaceTooLarge) as err:
            build_joint(mdps, 1)
        assert err.value.size == 65**11 * 11

    def test_transitions_are_built_on_request(self):
        _, mdps = fig1_pair(0.9, L=4)
        joint = build_joint(mdps, 1)
        assert "transitions" not in vars(joint)
        assert joint.transitions is joint.transitions


class TestFactoredSweep:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("rhos", [(0.7, 0.7, 0.7), (1.0, 1.0, 1.0), (0.7, 1.0, 0.7), (1.0, 0.7, 1.0)])
    def test_action_products_match_csr(self, m, rhos):
        mdps = mixed_triple(0.9, rhos)
        joint = build_joint(mdps, m)
        sweep = oracle._FactoredSweep(joint, 0.9)
        rng = np.random.default_rng(3)
        for _ in range(3):
            v = rng.standard_normal(joint.n_joint)
            sweep._gather(v)
            for a, p in enumerate(joint.transitions):
                got = sweep._product(a, np.empty(joint.n_joint))
                np.testing.assert_allclose(got, p @ v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_sweep_and_policy_match_csr(self, m):
        mdps = mixed_triple(0.9, (0.7, 1.0, 0.8))
        joint = build_joint(mdps, m)
        sweep = oracle._FactoredSweep(joint, 0.9)
        v = np.random.default_rng(4).random(joint.n_joint) * 10
        q = csr_q_values(joint, v, 0.9)
        np.testing.assert_allclose(sweep.values(v, np.empty(joint.n_joint)), q.min(axis=0), rtol=1e-14, atol=0)
        np.testing.assert_array_equal(sweep.policy(v), q.argmin(axis=0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "rhos",
        [(0.8,) * 4, (1.0,) * 4, (0.7, 1.0, 0.85, 0.7), (1.0, 0.7, 1.0, 0.7)],
        ids=["equal", "one", "mixed", "paired"],  # paired: a group of several without a prefix, then others
    )
    def test_values_bit_equal_to_the_minimum_of_the_action_sums(self, m, rhos):
        rng = np.random.default_rng(m)
        mdps = [
            build_truncated(random_bandit(rng, n, f"b{i}", rho=rhos[i]), L, 0.9)
            for i, (n, L) in enumerate(zip((2, 3, 4, 2), (3, 2, 2, 4)))
        ]
        joint = build_joint(mdps, m)
        sweep = oracle._FactoredSweep(joint, 0.9)
        out = np.empty(joint.n_joint)
        for _ in range(3):
            v = rng.standard_normal(joint.n_joint)
            got = sweep.values(v, out)
            sums = []
            for terms in joint.terms:  # in _product's order: each term times its weight, added in turn
                (t, weight), *rest = terms
                total = sweep.h[t] * weight
                for t, weight in rest:
                    total = total + (sweep.h[t] if weight == 1.0 else sweep.h[t] * weight)
                sums.append(total)
            ref = np.minimum.reduce(sums) * 0.9 + joint.cost
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_values_allocates_no_joint_sized_array(self, m, blocks, monkeypatch):
        rng = np.random.default_rng(11)
        mdps = [
            build_truncated(random_bandit(rng, n, f"b{n}", rho=rho), L, 0.9)
            for n, L, rho in zip((2, 3, 4), (10, 6, 5), (0.7, 1.0, 0.85))
        ]
        joint = build_joint(mdps, m)
        cut_into(monkeypatch, blocks)
        sweeps = [oracle._FactoredSweep(joint, 0.9, rows) for rows in oracle._row_blocks(joint)]
        assert len(sweeps) == blocks
        v, tv, d = np.random.default_rng(1).random(joint.n_joint), np.empty(joint.n_joint), np.empty(joint.n_joint)
        for sweep in sweeps:
            sweep.difference(v, tv, d)
        tracemalloc.start()
        try:
            for sweep in sweeps:
                sweep.difference(v, tv, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an eighth of one n_joint float64 array: every intermediate
        # contraction at m = 2 is larger than this
        assert peak < joint.n_joint

    def test_policy_ties_go_to_the_lowest_action(self):
        _, mdps = fig1_pair(0.9, L=4)
        joint = build_joint(mdps, 1)
        v = np.zeros(joint.n_joint)  # every q-value ties at the cost
        np.testing.assert_array_equal(oracle._FactoredSweep(joint, 0.9).policy(v), 0)


REPO = Path(__file__).resolve().parents[1]


def oracle_digest(res) -> str:
    """SHA-256 of every output of a solve, bit for bit."""
    h = hashlib.sha256()
    h.update(res.values.tobytes())
    for text in (res.value.hex(), *(b.hex() for b in res.bounds), str(res.sweeps)):
        h.update(text.encode())
    h.update(res.policy.tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """Values, value, bounds, sweeps and policy, pinned by digests computed
    before the sweep grouped its actions."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("two_sources_discounted", "c633a34f8a96b31043bef899e3a33b357b7cd391f9b60878647cd411b49a591a"),
            ("two_sources_average", "d748c13b4e1dc08480b661e6ac0432bf3bc218564806dc2526c762c2c9cb4e8d"),
        ],
    )
    def test_sample_configs(self, name, digest):
        prep = prepare(load_config(REPO / "configs" / f"{name}.json"))
        config = prep.config
        if config.criterion == "discounted":  # as cli.cmd_oracle solves it
            res = joint_solve_discounted(prep.mdps, config.m, tol=1e-8, initial_states=prep.initial_states)
        else:
            res = joint_solve_average(prep.mdps, config.m, tol=1e-8)
        assert oracle_digest(res) == digest

    def test_mixed_triple_two_channels(self):
        res = joint_solve_discounted(mixed_triple(0.9, (0.7, 1.0, 0.85)), 2, tol=1e-8)
        assert oracle_digest(res) == "a96e29e4832f9b4a31d0d4ff7f52faaa0d12d60593f69b40b699963a32a6ec2d"

    def test_four_actions_in_one_group(self):
        rng = np.random.default_rng(19)
        mdps = [  # one success probability, so the four actions share their prefix
            build_truncated(random_bandit(rng, n, f"q{i}", rho=0.8), L, 1.0)
            for i, (n, L) in enumerate(zip((2, 3, 2, 3), (4, 3, 5, 2)))
        ]
        res = joint_solve_average(mdps, 1, tol=1e-8)
        assert oracle_digest(res) == "6598ff622088e257255bf85f456d404c5370f4873e7cc1abdb7b1c7990302be5"


def solve_pinned(name):
    """The solves `TestPinnedOutputs` pins."""
    if name in ("two_sources_discounted", "two_sources_average"):
        prep = prepare(load_config(REPO / "configs" / f"{name}.json"))
        if prep.config.criterion == "discounted":
            return joint_solve_discounted(prep.mdps, prep.config.m, tol=1e-8, initial_states=prep.initial_states)
        return joint_solve_average(prep.mdps, prep.config.m, tol=1e-8)
    if name == "mixed_triple_two_channels":
        return joint_solve_discounted(mixed_triple(0.9, (0.7, 1.0, 0.85)), 2, tol=1e-8)
    rng = np.random.default_rng(19)
    mdps = [
        build_truncated(random_bandit(rng, n, f"q{i}", rho=0.8), L, 1.0)
        for i, (n, L) in enumerate(zip((2, 3, 2, 3), (4, 3, 5, 2)))
    ]
    return joint_solve_average(mdps, 1, tol=1e-8)


class InlinePool:
    """Stands in for ThreadPoolExecutor: runs each submitted block at once, on
    the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


PINNED = ["two_sources_discounted", "two_sources_average", "mixed_triple_two_channels", "four_actions_in_one_group"]


def random_joint_instance(rng, beta):
    """(mdps, m): M from 2 to 4 bandits of 2 or 3 chain states, rho in {0.5,
    0.8, 1.0}; bandit 0 has 5 to 16 states, so that 2 and 3 row blocks of
    at least two rows each fit, and often cut it unevenly."""
    M = int(rng.integers(2, 5))
    shallow = {2: 8, 3: 4, 4: 2}[M]
    mdps = [
        build_truncated(
            random_bandit(rng, int(rng.integers(2, 4)), f"r{i}", rho=float(rng.choice([0.5, 0.8, 1.0]))),
            int(rng.integers(2, 6)) if i == 0 else int(rng.integers(1, shallow + 1)),
            beta,
        )
        for i in range(M)
    ]
    return mdps, int(rng.integers(1, M))


class TestRowBlocks:
    """Any cut into row blocks gives the one-block solve bit for bit, and
    its threads end with the solve."""

    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_instances(self, name, monkeypatch):
        cut_into(monkeypatch, 1)
        whole = solve_pinned(name)
        for blocks in (2, 3):
            cut_into(monkeypatch, blocks)
            res = solve_pinned(name)
            assert res.blocks == blocks
            assert oracle_digest(res) == oracle_digest(whole)

    @pytest.mark.parametrize("beta", [0.9, 1.0], ids=["discounted", "average"])
    @pytest.mark.parametrize("threads", [False, True], ids=["inline", "threads"])
    def test_random_instances(self, beta, threads, monkeypatch):
        # a thread switch per sweep costs more than these small sweeps, so
        # most instances run their blocks at submit, on this thread
        if not threads:
            monkeypatch.setattr(oracle, "ThreadPoolExecutor", InlinePool)
        rng = np.random.default_rng((2023, 2024)[beta == 1.0] + 10 * threads)
        solve = joint_solve_discounted if beta < 1.0 else joint_solve_average
        cuts = set()
        for _ in range(10 if threads else 150):
            mdps, m = random_joint_instance(rng, beta)
            cut_into(monkeypatch, 1)
            whole = oracle_digest(solve(mdps, m, tol=1e-5))
            n0 = mdps[0].n_states
            for blocks in (2, 3):
                cut_into(monkeypatch, blocks)
                res = solve(mdps, m, tol=1e-5)
                assert res.blocks == min(blocks, n0 // 2)
                assert oracle_digest(res) == whole, (n0, [mdp.n_states for mdp in mdps], m, blocks)
                cuts.add((res.blocks, n0 % res.blocks != 0))
        assert cuts >= {(2, True), (3, True)} or threads  # uneven cuts of both counts

    def test_more_blocks_than_cpus_under_fast_thread_switching(self, monkeypatch):
        cut_into(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = solve_pinned("mixed_triple_two_channels")
        finally:
            sys.setswitchinterval(interval)
        assert res.blocks == 4
        assert oracle_digest(res) == "a96e29e4832f9b4a31d0d4ff7f52faaa0d12d60593f69b40b699963a32a6ec2d"

    def test_block_count(self, monkeypatch):
        _, mdps = fig1_pair(0.9, L=20)  # 41 states each: 1,681 joint states
        joint = build_joint(mdps, 1)
        for cpus, part, blocks in [(2, 1, 2), (3, 1, 3), (2, 841, 1), (2, 840, 2), (64, 1, 20), (1, 1, 1)]:
            monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(oracle, "_PART_STATES", part)
            rows = oracle._row_blocks(joint)
            assert len(rows) == blocks
            assert rows[0].start == 0 and rows[-1].stop == 41
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            assert all(r.stop - r.start >= 2 for r in rows)

    @pytest.mark.parametrize("max_iters", [2_000_000, 3], ids=["converged", "no-convergence"])
    def test_no_worker_thread_outlives_the_solve(self, max_iters, monkeypatch):
        cut_into(monkeypatch, 3)
        before = set(threading.enumerate())
        ran_on = set()
        difference = oracle._FactoredSweep.difference

        def recorded(self, *args):
            ran_on.add(threading.current_thread())
            return difference(self, *args)

        monkeypatch.setattr(oracle._FactoredSweep, "difference", recorded)
        mdps = mixed_triple(0.9, (0.7, 1.0, 0.85))
        if max_iters == 3:
            with pytest.raises(NoConvergence, match="in 3 sweeps"):
                joint_solve_discounted(mdps, 1, tol=1e-8, max_iters=max_iters)
        else:
            assert joint_solve_discounted(mdps, 1, tol=1e-8).blocks == 3
        assert threading.current_thread() in ran_on and len(ran_on) >= 2  # some block ran on a worker
        assert not any(t.is_alive() for t in ran_on - before)
        assert set(threading.enumerate()) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_cpu_child_gives_the_pinned_digest(self):
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from uoisched import oracle\n"
            "oracle._PART_STATES = 1\n"
            "from test_oracle import oracle_digest, solve_pinned\n"
            "res = solve_pinned('mixed_triple_two_channels')\n"
            "print(oracle._usable_cpus(), res.blocks, oracle_digest(res))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        args = [sys.executable, "-c", code, str(Path(__file__).parent)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cpus, blocks, digest = proc.stdout.split()
        assert (cpus, blocks) == ("1", "1")
        assert digest == "a96e29e4832f9b4a31d0d4ff7f52faaa0d12d60593f69b40b699963a32a6ec2d"


class TestOracleAgainstCsrReference:
    @pytest.mark.parametrize("m", [1, 2])
    def test_discounted(self, m):
        mdps = mixed_triple(0.8, (0.7, 1.0, 0.85))
        res = joint_solve_discounted(mdps, m, tol=1e-8)
        sweeps, values, policy, _ = csr_value_iteration(mdps, m, 0.8, 1e-8)
        assert res.sweeps == sweeps
        np.testing.assert_allclose(res.values, values, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(res.policy, policy)

    @pytest.mark.parametrize("m", [1, 2])
    def test_average(self, m):
        mdps = mixed_triple(1.0, (0.7, 1.0, 0.85))
        res = joint_solve_average(mdps, m, tol=1e-8)
        sweeps, values, policy, _ = csr_value_iteration(mdps, m, 1.0, 1e-8)
        assert res.sweeps == sweeps
        np.testing.assert_allclose(res.values, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))
        np.testing.assert_array_equal(res.policy, policy)

    @pytest.mark.parametrize("beta", [0.9, 1.0])
    def test_identical_bandits_tie_as_the_reference(self, beta):
        _, mdps = fig1_pair(beta, L=6, rho=0.9)
        solve = joint_solve_discounted if beta < 1.0 else joint_solve_average
        res = solve(mdps, 1, tol=1e-8)
        sweeps, _, policy, q = csr_value_iteration(mdps, 1, beta, 1e-8)
        assert np.sum(q[0] == q[1]) >= 13  # at least the diagonal states tie
        assert res.sweeps == sweeps
        np.testing.assert_array_equal(res.policy, policy)


class TestStoppingArguments:
    @pytest.mark.parametrize("solve", [joint_solve_discounted, joint_solve_average])
    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")}, {"max_iters": 0}])
    def test_unusable_arguments_rejected(self, solve, kwargs):
        beta = 0.9 if solve is joint_solve_discounted else 1.0
        _, mdps = fig1_pair(beta, L=4)
        with pytest.raises(ValueError):
            solve(mdps, 1, **kwargs)

    @pytest.mark.parametrize(
        "solve, betas",
        [
            (joint_solve_discounted, (1.0, 1.0)),
            (joint_solve_discounted, (0.9, 0.5)),
            (joint_solve_average, (0.9, 0.9)),
            (joint_solve_average, (1.0, 0.9)),
        ],
        ids=["discounted-at-1", "discounted-mixed", "average-at-0.9", "average-mixed"],
    )
    def test_discount_of_the_other_criterion_or_mixed_rejected(self, solve, betas):
        chain = validate_chain(FIG1)
        mdps = [build_truncated(BanditSpec(chain, 1.0, label), 4, b) for label, b in zip("ab", betas)]
        with pytest.raises(ValueError, match="discount"):
            solve(mdps, 1)

    def test_max_iters_bounds_the_sweeps(self):
        _, mdps = fig1_pair(0.9, L=4)
        assert joint_solve_discounted(mdps, 1, max_iters=1, tol=1e3).sweeps == 1
        with pytest.raises(NoConvergence):
            joint_solve_discounted(mdps, 1, max_iters=1)

    def test_no_convergence_names_sweeps_and_bracket(self):
        _, mdps = fig1_pair(0.9, L=4)
        with pytest.raises(NoConvergence, match=r"in 2 sweeps: last bracket width \S+ > tol 1e-14"):
            joint_solve_discounted(mdps, 1, max_iters=2, tol=1e-14)

    def test_no_convergence_names_sweeps_and_span(self):
        _, mdps = fig1_pair(1.0, L=4)
        with pytest.raises(NoConvergence, match=r"in 2 sweeps: last span \S+ > tol 1e-14"):
            joint_solve_average(mdps, 1, max_iters=2, tol=1e-14)


CERTIFIED_INSTANCES = [
    pytest.param(lambda beta: fig1_pair(beta, L=8, rho=0.9)[1], 1, id="fig1_pair-m1"),
    pytest.param(lambda beta: mixed_triple(beta, (0.7, 1.0, 0.85)), 1, id="mixed-m1"),
    pytest.param(lambda beta: mixed_triple(beta, (0.7, 1.0, 0.85)), 2, id="mixed-m2"),
]


class TestCertifiedStop:
    """MacQueen's bracket (discounted) and Odoni's (average) against tight solves."""

    TOL, TIGHT = 1e-8, 1e-13

    @pytest.mark.parametrize("make, m", CERTIFIED_INSTANCES)
    def test_every_value_within_half_tol(self, make, m):
        mdps = make(0.9)
        res = joint_solve_discounted(mdps, m, tol=self.TOL)
        tight = joint_solve_discounted(mdps, m, tol=self.TIGHT)
        assert np.max(np.abs(res.values - tight.values)) <= 0.5 * (self.TOL + self.TIGHT)

    @pytest.mark.parametrize("make, m", CERTIFIED_INSTANCES)
    def test_bounds_contain_the_start_value(self, make, m):
        mdps = make(0.9)
        res = joint_solve_discounted(mdps, m, tol=self.TOL)
        tight = joint_solve_discounted(mdps, m, tol=self.TIGHT)
        low, high = res.bounds
        assert 0.0 <= high - low <= self.TOL
        assert low <= res.value <= high
        assert low - 0.5 * self.TIGHT <= tight.value <= high + 0.5 * self.TIGHT

    @pytest.mark.parametrize("make, m", CERTIFIED_INSTANCES)
    def test_zero_discount_stops_after_one_sweep(self, make, m):
        res = joint_solve_discounted(make(0.0), m)
        assert res.sweeps == 1
        np.testing.assert_array_equal(res.values, res.joint.cost)
        assert res.bounds == (res.value, res.value)

    @pytest.mark.parametrize("make, m", CERTIFIED_INSTANCES)
    def test_average_bracket_contains_the_gain(self, make, m):
        mdps = make(1.0)
        res = joint_solve_average(mdps, m, tol=1e-6)
        tight = joint_solve_average(mdps, m, tol=1e-12)
        low, high = res.bounds
        assert 0.0 <= high - low <= 1e-6
        assert low <= res.gain <= high
        assert low <= tight.gain <= high
        assert tight.bounds[0] <= tight.gain <= tight.bounds[1]


class TestDiscountedOracle:
    def test_identical_bandits_value_symmetric(self):
        _, mdps = fig1_pair(0.9, L=8)
        res = joint_solve_discounted(mdps, 1, tol=1e-9)
        joint = res.joint
        rng = np.random.default_rng(0)
        for _ in range(25):
            s1, s2 = rng.integers(0, 17, size=2)
            assert res.values[joint.joint_index([s1, s2])] == pytest.approx(
                res.values[joint.joint_index([s2, s1])], abs=1e-7
            )

    def test_fig1_gain_index_within_two_percent(self):
        bandits, mdps = fig1_pair(0.9, L=12)
        lam = gradient_search(make_problem(mdps, 1, "discounted")).lambda_star
        tables = [gain_indices_discounted(m, lam) for m in mdps]
        inst = RMABInstance(bandits, 1, "discounted", 0.9, seed=22)
        horizon = discounted_horizon(0.9, 2.0)
        res = simulate(inst, "gain_index", horizon=horizon, runs=3000, tables=tables)
        oracle = joint_solve_discounted(mdps, 1)
        assert abs(res.mean - oracle.value) / oracle.value < 0.02

    def test_oracle_dominates_relaxed_bound(self):
        rng = np.random.default_rng(7)
        mdps = [build_truncated(random_bandit(rng, 2, f"b{i}"), 10, 0.9) for i in range(2)]
        problem = make_problem(mdps, 1, "discounted")
        trace = gradient_search(problem)
        oracle = joint_solve_discounted(mdps, 1)
        assert oracle.value >= objective_value(problem, trace.lambda_star) - 1e-7

    def test_oracle_below_any_feasible_policy(self):
        rng = np.random.default_rng(13)
        bandits = [random_bandit(rng, 2, f"b{i}") for i in range(2)]
        mdps = [build_truncated(b, 10, 0.9) for b in bandits]
        oracle = joint_solve_discounted(mdps, 1)
        inst = RMABInstance(bandits, 1, "discounted", 0.9, seed=5)
        horizon = discounted_horizon(0.9, 2.0)
        for policy in ("myopic", "round_robin"):
            res = simulate(inst, policy, horizon=horizon, runs=600, truncation_L=10)
            assert oracle.value <= res.mean + 3 * res.stderr

    @BAD_INITIAL_STATES
    def test_bad_initial_states_rejected_before_the_solve(self, monkeypatch, states, error, message):
        def no_solve(*args):
            raise AssertionError("the joint was solved")

        monkeypatch.setattr(oracle, "_value_iteration", no_solve)
        with pytest.raises(error, match=message):
            joint_solve_discounted(discounted_sample().mdps, 1, initial_states=states)

    def test_zero_entropy_partner_reduces_to_single_bandit_value(self):
        # m = 1, one bandit carries no information: the oracle always serves
        # the live bandit, so the joint value equals its lam = 0 single value
        live = BanditSpec(validate_chain(FIG1), 1.0, "live")
        dead = BanditSpec(zero_entropy_chain(), 1.0, "dead")
        L, _ = choose_truncation(live, 1e-8)
        mdp_live = build_truncated(live, L, 0.9)
        mdp_dead = build_truncated(dead, 3, 0.9)
        oracle = joint_solve_discounted([mdp_live, mdp_dead], 1, tol=1e-10)
        single = policy_iteration_discounted(mdp_live, 0.0)
        assert oracle.value == pytest.approx(single.values[0], abs=1e-6)


class TestAverageOracle:
    def test_zero_entropy_sources_gain_zero(self):
        mdps = [build_truncated(BanditSpec(zero_entropy_chain(), 1.0, l), 3, 1.0) for l in "ab"]
        res = joint_solve_average(mdps, 1, tol=1e-10)
        assert res.gain == pytest.approx(0.0, abs=1e-9)

    def test_random_instance_gain_index_within_two_percent(self):
        rng = np.random.default_rng(303)
        bandits = [random_bandit(rng, 3, f"b{i}") for i in range(2)]
        mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]
        lam = gradient_search(make_problem(mdps, 1, "average")).lambda_star
        tables = [gain_indices_average(m, lam) for m in mdps]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=41)
        res = simulate(inst, "gain_index", horizon=20000, runs=20, tables=tables)
        oracle = joint_solve_average(mdps, 1, tol=1e-8)
        assert abs(res.mean - oracle.gain) / oracle.gain < 0.02

    def test_oracle_dominates_relaxed_bound(self):
        rng = np.random.default_rng(99)
        mdps = [build_truncated(random_bandit(rng, 2, f"b{i}"), 12, 1.0) for i in range(2)]
        problem = make_problem(mdps, 1, "average")
        trace = gradient_search(problem)
        oracle = joint_solve_average(mdps, 1, tol=1e-9)
        assert oracle.gain >= objective_value(problem, trace.lambda_star) - 1e-7
