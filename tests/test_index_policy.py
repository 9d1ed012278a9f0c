import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uoisched import (
    BanditSpec,
    ChainSpec,
    ConfigError,
    build_truncated,
    choose_truncation,
    gain_index_general,
    gain_index_tables,
    gain_indices_average,
    gain_indices_discounted,
    gradient_search,
    load_table,
    make_problem,
    or_active,
    policy_iteration_discounted,
    save_table,
    solve_average,
    transition_matrices,
    validate_chain,
)
from uoisched.config import load_config
from uoisched.index_policy import GainIndexTable, table_from_doc, table_to_doc
from uoisched.solvers import BanditBatch, solve_batch
from uoisched.workflows import compute_index_tables, prepare

from conftest import FIG1, active_passive, or_decision, random_bandit, rho_one_pair

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def resolved_mdp(bandit, beta, eta=1e-6):
    L, _ = choose_truncation(bandit, eta)
    return build_truncated(bandit, L, beta)


def find_all_passive_lambda(mdp, beta):
    lam = 1.0
    for _ in range(60):
        solver = policy_iteration_discounted if beta < 1 else solve_average
        if solver(mdp, lam).actions.max() == 0:
            return lam
        lam *= 2.0
    raise AssertionError("no all-passive lambda found")


class TestDiscountedIndices:
    def test_omega_entry_formula(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "f")
        mdp = resolved_mdp(bandit, 0.9)
        table = gain_indices_discounted(mdp, 0.05)
        v = table.values
        # W(omega) = V(omega) - sum_k omega_k V(T_k^1) since T omega = omega
        expected = v[0] - mdp.states[0] @ v[mdp.reset_states]
        assert table.indices[0] == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_entropy_bandits(self):
        rng = np.random.default_rng(808)
        for i in range(4):
            bandit = random_bandit(rng, int(rng.integers(2, 4)), f"b{i}")
            mdp = resolved_mdp(bandit, 0.9)
            table = gain_indices_discounted(mdp, float(rng.uniform(0, 0.3)))
            assert table.indices.min() >= -1e-10

    def test_deterministic_cycle_source_has_zero_orbit_indices(self):
        # a cyclic permutation chain is periodic, so build the spec by hand;
        # its belief orbit {T_k^n} is all point masses with zero entropy and
        # zero value, so the indices vanish on the orbit.  The truncation
        # aggregate omega (and the age-cap states, whose passive successor is
        # rerouted to omega) carry the artifact index rho*H(omega) instead:
        # a cycle never actually mixes to equilibrium.
        t = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        chain = ChainSpec(n_states=3, transition=t, equilibrium=np.full(3, 1 / 3))
        L = 6
        mdp = build_truncated(BanditSpec(chain, 1.0, "cycle"), L, 0.9)
        table = gain_indices_discounted(mdp, 0.0)
        orbit = [mdp.state_index(k, n) for k in (1, 2, 3) for n in range(1, L)]
        capped = [mdp.state_index(k, L) for k in (1, 2, 3)]
        assert np.max(np.abs(table.indices[orbit])) < 1e-12
        assert np.allclose(table.indices[capped], np.log2(3), atol=1e-9)
        assert table.indices[0] == pytest.approx(np.log2(3), abs=1e-9)

    def test_identity_r_minus_a_equals_beta_w_minus_lambda(self):
        bandit = BanditSpec(validate_chain(FIG1), 0.8, "f")
        mdp = resolved_mdp(bandit, 0.9)
        lam = 0.08
        pol = policy_iteration_discounted(mdp, lam)
        table = gain_indices_discounted(mdp, lam, policy=pol)
        a, r = active_passive(mdp, pol.values, lam)
        for s in range(mdp.n_states):
            assert r[s] - a[s] == pytest.approx(0.9 * table.indices[s] - lam, abs=1e-8)


class TestOneCriterionPerTable:
    """Each index twin serves one criterion and rejects an MDP of the other,
    with or without a given policy."""

    @pytest.mark.parametrize("given_policy", [False, True], ids=["solved", "given"])
    @pytest.mark.parametrize(
        "make, beta",
        [(gain_indices_discounted, 1.0), (gain_indices_average, 0.9)],
        ids=["gain_indices_discounted", "gain_indices_average"],
    )
    def test_mdp_of_the_other_criterion_is_rejected(self, make, beta, given_policy):
        mdp = build_truncated(BanditSpec(validate_chain(FIG1), 1.0, "f"), 6, beta)
        policy = solve_batch(BanditBatch([mdp]), 0.1).policy(0) if given_policy else None
        with pytest.raises(ValueError, match=f"{make.__name__} requires discount"):
            make(mdp, 0.1, policy=policy)

    @pytest.mark.parametrize(
        "make, beta, criterion",
        [(gain_indices_discounted, 0.9, "discounted"), (gain_indices_average, 1.0, "average")],
    )
    def test_criterion_is_read_off_the_discount(self, make, beta, criterion):
        mdp = build_truncated(BanditSpec(validate_chain(FIG1), 1.0, "f"), 6, beta)
        assert make(mdp, 0.1).criterion == criterion


class TestAverageIndices:
    def test_anchor_invariance(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "f")
        mdp = resolved_mdp(bandit, 1.0)
        sol = solve_average(mdp, 0.05)
        table = gain_indices_average(mdp, 0.05, policy=sol)
        shifted = type(sol)(sol.actions, sol.values + 3.7, sol.gain, sol.lam)
        table2 = gain_indices_average(mdp, 0.05, policy=shifted)
        assert np.allclose(table.indices, table2.indices, atol=1e-10)

    def test_symmetric_chain_indices_depend_only_on_age(self):
        chain = validate_chain([[0.85, 0.15], [0.15, 0.85]])
        mdp = resolved_mdp(BanditSpec(chain, 1.0, "sym"), 1.0)
        table = gain_indices_average(mdp, 0.03)
        L = mdp.truncation_L
        for age in range(1, L + 1):
            assert table.indices[mdp.state_index(1, age)] == pytest.approx(
                table.indices[mdp.state_index(2, age)], abs=1e-9
            )

    def test_well_defined_in_all_passive_regime(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "f")
        mdp = resolved_mdp(bandit, 1.0)
        lam = 2.0 * find_all_passive_lambda(mdp, 1.0)
        table = gain_indices_average(mdp, lam)
        assert np.all(np.isfinite(table.indices))


class TestGeneralIndex:
    def test_identical_transitions_give_zero(self):
        p = np.array([[0.2, 0.8], [0.6, 0.4]])
        v = np.array([1.0, 2.0])
        assert gain_index_general(p, p, v, 0) == 0.0
        assert gain_index_general(p, p, v, 1) == 0.0

    def test_reduces_to_belief_mdp_formula(self):
        bandit = BanditSpec(validate_chain(FIG1), 0.7, "f")
        mdp = resolved_mdp(bandit, 0.9)
        table = gain_indices_discounted(mdp, 0.04)
        passive, active = transition_matrices(mdp)
        for s in (0, 1, mdp.n_states - 1):
            w = gain_index_general(active, passive, table.values, s)
            assert w == pytest.approx(table.indices[s], abs=1e-12)

    def test_age_of_information_bandit_with_square_cost(self):
        # ages 1..K, passive increments (capped), active resets to age 1
        # w.p. rho; cost age^2 is not concave so the sign is not asserted
        K, rho, beta = 12, 0.8, 0.9
        p_passive = np.zeros((K, K))
        for x in range(K):
            p_passive[x, min(x + 1, K - 1)] = 1.0
        p_active = np.zeros((K, K))
        for x in range(K):
            p_active[x, 0] = rho
            p_active[x, min(x + 1, K - 1)] += 1.0 - rho
        cost = (np.arange(1, K + 1).astype(float)) ** 2
        lam = 5.0
        v = np.zeros(K)
        for _ in range(3000):
            qa = cost + lam + beta * (p_active @ v)
            qp = cost + beta * (p_passive @ v)
            v_new = np.minimum(qa, qp)
            if np.max(np.abs(v_new - v)) < 1e-12:
                break
            v = v_new
        for x in range(K):
            w = gain_index_general(p_active, p_passive, v, x)
            assert np.isfinite(w)
        # older ages should gain more from transmitting here
        w_first = gain_index_general(p_active, p_passive, v, 0)
        w_last = gain_index_general(p_active, p_passive, v, K - 1)
        assert w_last > w_first


class TestOrDecision:
    def test_zero_charge_all_active(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "f")
        mdp = resolved_mdp(bandit, 0.9)
        pol = policy_iteration_discounted(mdp, 0.0)
        assert all(or_decision(mdp, pol.values, s, 0.0) for s in range(mdp.n_states))

    def test_equivalent_to_index_threshold(self):
        bandit = BanditSpec(validate_chain(FIG1), 0.8, "f")
        mdp = resolved_mdp(bandit, 0.9)
        lam = 0.09
        pol = policy_iteration_discounted(mdp, lam)
        table = gain_indices_discounted(mdp, lam, policy=pol)
        for s in range(mdp.n_states):
            margin = 0.9 * table.indices[s] - lam
            if abs(margin) > 1e-8:  # skip knife-edge states
                assert or_decision(mdp, pol.values, s, lam) == (margin > 0)

    def test_all_passive_beyond_lambda_bar(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "f")
        mdp = resolved_mdp(bandit, 0.9)
        lam = 2.0 * find_all_passive_lambda(mdp, 0.9)
        pol = policy_iteration_discounted(mdp, lam)
        assert not any(or_decision(mdp, pol.values, s, lam) for s in range(mdp.n_states))


class TestOrRuleAtLambdaStar:
    """The OR rule read off the index table at lambda* makes the choices of
    the policy that policy iteration returns there, away from ties."""

    @staticmethod
    def _problems():
        for criterion, beta in (("discounted", 0.9), ("discounted", 0.99), ("average", 1.0)):
            for seed in range(1000, 1006):
                rng = np.random.default_rng(seed)
                bandits = [random_bandit(rng, rng.integers(2, 5), f"b{i}") for i in range(4)]
                yield make_problem([resolved_mdp(b, beta) for b in bandits], 2, criterion)
        for seed in range(6):
            yield make_problem(rho_one_pair(seed), 1, "average")

    def test_or_rule_matches_the_solution(self):
        checked = 0
        for problem in self._problems():
            trace = gradient_search(problem)
            sol, lam = trace.solution, trace.lambda_star
            if sol.activations is None:  # some final policy is multichain
                continue
            for mdp, table, j in zip(problem.mdps, gain_index_tables(problem, trace), problem.members):
                policy = sol.policy(j)
                clear = np.abs(mdp.discount * table.indices - lam) > 1e-8
                assert np.array_equal(or_active(table.indices, mdp.discount, lam)[clear], policy.actions[clear] == 1)
                decisions = [or_decision(mdp, policy.values, s, lam) for s in range(mdp.n_states)]
                assert np.array_equal(np.array(decisions)[clear], policy.actions[clear] == 1)
                checked += int(clear.sum())
        assert checked > 1000


class TestRankingConsistency:
    def test_gain_ordering_matches_d_ordering(self):
        # d_i = beta*W_i - lam* is a shared strictly increasing map of W_i
        rng = np.random.default_rng(31)
        lam, beta = 0.07, 0.9
        tables = []
        for i in range(3):
            mdp = resolved_mdp(random_bandit(rng, 2, f"b{i}"), beta)
            tables.append(gain_indices_discounted(mdp, lam))
        w = np.concatenate([t.indices for t in tables])
        d = beta * w - lam
        order_w = np.argsort(w, kind="stable")
        order_d = np.argsort(d, kind="stable")
        assert np.array_equal(order_w, order_d)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(99)
        chain = random_bandit(rng, 3, "base", rho=0.9).chain
        perm = np.array([2, 0, 1])
        p = np.zeros((3, 3))
        p[perm, np.arange(3)] = 1.0
        permuted = validate_chain(p @ chain.transition @ p.T)
        lam = 0.05
        L = 14
        t1 = gain_indices_discounted(build_truncated(BanditSpec(chain, 0.9, "a"), L, 0.9), lam)
        t2 = gain_indices_discounted(build_truncated(BanditSpec(permuted, 0.9, "b"), L, 0.9), lam)
        assert t1.indices[0] == pytest.approx(t2.indices[0], abs=1e-9)
        for k in range(1, 4):
            for age in range(1, L + 1):
                i1 = (k - 1) * L + age
                i2 = (int(perm[k - 1])) * L + age
                assert t1.indices[i1] == pytest.approx(t2.indices[i2], abs=1e-9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        mdp = build_truncated(bandit, 9, 0.9)
        table = gain_indices_discounted(mdp, 0.05)
        path = tmp_path / "table.json"
        save_table(table, path, config_hash="abc123")
        loaded = load_table(path)
        assert loaded.bandit_label == "fig1"
        assert loaded.criterion == "discounted"
        assert loaded.lambda_star == table.lambda_star
        assert loaded.truncation_L == 9
        assert np.allclose(loaded.indices, table.indices)
        assert np.allclose(loaded.beliefs, table.beliefs)

    def test_doc_layout(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        mdp = build_truncated(bandit, 3, 0.9)
        doc = table_to_doc(gain_indices_discounted(mdp, 0.0))
        assert doc["schema_version"] == 1
        omega_entry = doc["states"][0]
        assert omega_entry["k"] == 0 and omega_entry["n"] == 0
        assert omega_entry["belief"] == [pytest.approx(30 / 31), pytest.approx(1 / 31)]
        assert {s["k"] for s in doc["states"]} == {0, 1, 2}
        assert len(doc["states"]) == 7

    def test_unknown_field_rejected(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 3, 0.9), 0.0))
        doc["surprise"] = 1
        with pytest.raises(Exception, match="surprise"):
            table_from_doc(doc)

    def test_duplicated_and_missing_state_rejected(self):
        # slot 3 overwritten by a copy of slot 2: the count still matches, but
        # (k, n) = (1, 3) is missing and (1, 2) appears twice
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        doc["states"][3] = dict(doc["states"][2])
        with pytest.raises(ConfigError, match="grid"):
            table_from_doc(doc)

    def test_non_finite_index_rejected(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        doc["states"][5]["index"] = float("nan")
        with pytest.raises(ConfigError, match="non-finite"):
            table_from_doc(json.loads(json.dumps(doc)))

    def test_short_belief_rejected(self):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        doc["states"][1]["belief"] = [1.0]
        with pytest.raises(ConfigError, match="length"):
            table_from_doc(doc)

    @pytest.mark.parametrize(
        "break_doc, message",
        [
            (lambda d: d.pop("states"), "lacks field 'states'"),
            (lambda d: d.pop("bandit_label"), "lacks field 'bandit_label'"),
            (lambda d: d.update(lambda_star=None), "malformed field"),
            (lambda d: d["states"][2].pop("index"), "lacks field 'index'"),
            (lambda d: d["states"][1].update(belief=0.5), "malformed field"),
        ],
        ids=["no_states", "no_label", "null_lambda", "no_index", "scalar_belief"],
    )
    def test_malformed_file_rejected_naming_it(self, tmp_path, break_doc, message):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        break_doc(doc)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message) as info:
            load_table(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda_star", float("nan")),
            ("lambda_star", float("inf")),
            ("lambda_star", -0.5),
            ("lambda_star", True),
            ("lambda_star", "0.05"),
            ("criterion", "discount"),
            ("criterion", None),
        ],
        ids=["nan_lambda", "inf_lambda", "negative_lambda", "bool_lambda", "string_lambda", "unknown_criterion",
             "null_criterion"],
    )
    def test_bad_lambda_star_or_criterion_rejected(self, field, value):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        doc[field] = value
        with pytest.raises(ConfigError, match=f"malformed field {field}"):
            table_from_doc(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "make_doc, message",
        [
            (lambda doc: [doc], "index table document must be a JSON object"),
            (lambda doc: dict(doc, schema_version=2), "unsupported index table schema_version: 2"),
        ],
        ids=["not_an_object", "schema_version"],
    )
    def test_document_rejected_before_its_fields(self, make_doc, message):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        doc = table_to_doc(gain_indices_discounted(build_truncated(bandit, 4, 0.9), 0.05))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            table_from_doc(make_doc(doc))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_chain=st.integers(2, 6),
        L=st.integers(1, 60),
        config_hash=st.sampled_from([None, "abc123", "0f" * 32]),
        label=st.sampled_from(["fig1", "src-b", 'q"\\ü']),
        lam=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**32 - 1),
        non_finite=st.lists(st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]), max_size=4),
    )
    def test_save_table_writes_the_json_encoders_text(self, tmp_path, n_chain, L, config_hash, label, lam, seed, non_finite):
        rng = np.random.default_rng(seed)
        n = n_chain * L + 1
        beliefs = rng.dirichlet(np.ones(n_chain), size=n)
        indices = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, size=n)
        for value in non_finite:  # indices and beliefs json spells NaN, Infinity, -Infinity
            indices[rng.integers(n)] = value
            beliefs[rng.integers(n), rng.integers(n_chain)] = value
        table = GainIndexTable(label, "average", lam, indices, None, beliefs, L)
        path = tmp_path / "table.json"
        save_table(table, path, config_hash)
        expected = json.dumps(table_to_doc(table, config_hash), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_json_is_deterministic(self, tmp_path):
        bandit = BanditSpec(validate_chain(FIG1), 1.0, "fig1")
        mdp = build_truncated(bandit, 5, 0.9)
        table = gain_indices_discounted(mdp, 0.02)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_table(table, p1)
        save_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())


class TestTablesFromTheSearch:
    """`gain_index_tables` reads the tables off the search's solve at lambda*."""

    @staticmethod
    def _per_bandit(mdp, criterion, lam):
        make = gain_indices_discounted if criterion == "discounted" else gain_indices_average
        return make(mdp, lam)

    @pytest.mark.parametrize("name", ["two_sources_discounted", "two_sources_average"])
    def test_bit_identical_to_per_bandit_solves_on_sample_configs(self, name):
        prep = prepare(load_config(CONFIGS / f"{name}.json"))
        result = compute_index_tables(prep)
        lam = result.trace.lambda_star
        for mdp, table in zip(prep.mdps, result.tables):
            alone = self._per_bandit(mdp, prep.config.criterion, lam)
            assert table.bandit_label == alone.bandit_label
            assert table.criterion == alone.criterion == prep.config.criterion
            assert table.lambda_star == alone.lambda_star == lam
            assert np.array_equal(table.indices, alone.indices)
            assert np.array_equal(table.values, alone.values)

    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    def test_mixed_sizes_within_batch_drift_of_per_bandit_solves(self, criterion):
        rng = np.random.default_rng(31)
        beta = 0.9 if criterion == "discounted" else 1.0
        mdps = [
            build_truncated(random_bandit(rng, n, f"b{i}"), L, beta)
            for i, (n, L) in enumerate([(2, 5), (4, 9), (3, 23), (2, 12), (5, 7)])
        ]
        problem = make_problem(mdps, 2, criterion)
        trace = gradient_search(problem)
        tables = gain_index_tables(problem, trace)
        for mdp, table in zip(mdps, tables):
            alone = self._per_bandit(mdp, criterion, trace.lambda_star)
            # the batched-evaluation drift of the values; an index is rho
            # times a difference of values, so it may drift twice as far
            scale = np.max(np.abs(alone.values))
            assert np.max(np.abs(table.values - alone.values)) <= 1e-13 * scale
            assert np.max(np.abs(table.indices - alone.indices)) <= 2e-13 * scale

    def test_duplicated_bandits_share_their_table(self):
        rng = np.random.default_rng(4)
        shared = build_truncated(random_bandit(rng, 3, "dup"), 10, 0.9)
        other = build_truncated(random_bandit(rng, 2, "other"), 8, 0.9)
        problem = make_problem([shared, other, shared, shared], 2, "discounted")
        tables = gain_index_tables(problem, gradient_search(problem))
        assert tables[0] is tables[2] is tables[3]
        assert tables[1] is not tables[0]
        assert [t.bandit_label for t in tables] == ["dup", "other", "dup", "dup"]

    def test_trace_without_solution_rejected(self):
        mdps = [resolved_mdp(BanditSpec(validate_chain(FIG1), 1.0, f"f{i}"), 0.9) for i in range(2)]
        problem = make_problem(mdps, 1, "discounted")
        trace = gradient_search(problem)
        trace.solution = None
        with pytest.raises(ValueError, match="no solution"):
            gain_index_tables(problem, trace)
