import math

import mpmath
import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from uoisched import markov
from uoisched import (
    DimensionMismatch,
    IndexOutOfRange,
    NotStochastic,
    Periodic,
    Reducible,
    belief_propagate,
    belief_reset,
    entropies,
    entropy,
    n_step_column,
    uoi,
    validate_chain,
)

from conftest import FIG1, random_chain


def entropy_bits_highprec(probs) -> float:
    """Independent high-precision entropy oracle (50 decimal digits)."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probs:
            p = mpmath.mpf(repr(p))
            if p > 0:
                total -= p * mpmath.log(p, 2)
        return float(total)


def dfs_period(edges) -> int:
    """Period of a strongly connected digraph from depth-first levels over
    adjacency lists: gcd of level[u] + 1 - level[v] over the edges u -> v
    (reference for the boolean-level `markov._chain_period`)."""
    n = len(edges)
    adj = [list(np.flatnonzero(row)) for row in edges]
    level = [-1] * n
    level[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                stack.append(v)
    g = 0
    for u in range(n):
        for v in adj[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def warshall_closure(edges) -> np.ndarray:
    """Reflexive-transitive closure of one boolean adjacency matrix by
    Warshall's loop over intermediate nodes (reference for `markov._closure`)."""
    n = len(edges)
    reach = np.array(edges, dtype=bool) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


def random_irreducible_digraphs(rng, count):
    """Random strongly connected digraphs of 2-9 nodes, about half of them
    block-cyclic: edges only from class c to class c + 1 (mod d), so their
    period is a multiple of d."""
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(2, 10))
        if rng.random() < 0.5:
            d = int(rng.integers(2, n + 1))
            cls = rng.permutation(np.arange(n) % d)
            edges = (rng.random((n, n)) < rng.uniform(0.5, 1.0)) & (cls[None, :] == (cls[:, None] + 1) % d)
        else:
            edges = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        if csgraph.connected_components(edges, directed=True, connection="strong")[0] == 1:
            graphs.append(edges)
    return graphs


class TestValidateChain:
    def test_fig1_equilibrium(self):
        chain = validate_chain(FIG1)
        # oracle: direct linear solve of w = T w, sum(w) = 1
        t = np.array(FIG1)
        a = np.vstack([t - np.eye(2), np.ones(2)])
        w, *_ = np.linalg.lstsq(a, np.array([0.0, 0.0, 1.0]), rcond=None)
        assert np.allclose(chain.equilibrium, w, atol=1e-12)
        assert np.allclose(chain.equilibrium, [0.9677, 0.0323], atol=5e-5)

    def test_identity_is_reducible(self):
        with pytest.raises(Reducible):
            validate_chain(np.eye(2))

    def test_reducible_message_names_the_components(self):
        # states 1 and 4 form one closed class, 2 and 3 another
        t = [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]]
        with pytest.raises(Reducible, match=r"strongly connected components: \[\[1, 4\], \[2, 3\]\]$"):
            validate_chain(t)

    def test_transient_states_are_their_own_components(self):
        # 1 -> 2 -> 3 with 3 absorbing: three singleton groups, by smallest state
        t = [[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 1.0]]
        with pytest.raises(Reducible, match=r"components: \[\[1\], \[2\], \[3\]\]$"):
            validate_chain(t)

    def test_components_match_csgraph_on_random_digraphs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            edges = rng.random((n, n)) < rng.uniform(0.05, 0.5)
            _, labels = csgraph.connected_components(edges, directed=True, connection="strong")
            expected = sorted([list(np.flatnonzero(labels == c) + 1) for c in np.unique(labels)])
            assert markov._strong_components(edges) == expected

    def test_period_matches_depth_first_levels(self):
        graphs = random_irreducible_digraphs(np.random.default_rng(25), 600)
        periods = [markov._chain_period(edges) for edges in graphs]
        assert periods == [dfs_period(edges) for edges in graphs]
        assert sum(p > 1 for p in periods) >= 200  # the block-cyclic half keeps periodic cases common

    def test_three_cycle_of_blocks_is_periodic(self):
        # states {1, 2} -> {3} -> {4} -> {1, 2}: every cycle has length 3
        t = [[0.0, 0.0, 0.0, 0.4], [0.0, 0.0, 0.0, 0.6], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        with pytest.raises(Periodic, match=r"^chain is periodic with period 3$"):
            validate_chain(t)

    def test_bad_column_sum(self):
        with pytest.raises(NotStochastic, match="column 1"):
            validate_chain([[0.5, 0.3], [0.6, 0.7]])

    def test_non_finite_entry_names_it(self):
        with pytest.raises(NotStochastic, match=r"^entry \(0, 1\) = nan outside \[0, 1\]$"):
            validate_chain([[0.5, float("nan")], [0.5, 0.5]])

    def test_two_cycle_is_periodic(self):
        with pytest.raises(Periodic, match="period 2"):
            validate_chain([[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(NotStochastic):
            validate_chain([[0.5, 0.5, 0.0], [0.5, 0.5, 1.0]])

    def test_fixed_point(self):
        chain = validate_chain(FIG1)
        assert np.max(np.abs(chain.transition @ chain.equilibrium - chain.equilibrium)) < 1e-10


class TestClosure:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_stacked_graphs_match_the_loop_reference(self, n):
        rng = np.random.default_rng(n)
        edges = rng.random((3, 4, n, n)) < rng.uniform(0.05, 0.5, size=(3, 4, 1, 1))
        want = np.array([warshall_closure(e) for e in edges.reshape(-1, n, n)]).reshape(edges.shape)
        assert np.array_equal(markov._closure(edges), want)

    def test_a_path_through_every_node_is_closed(self):
        # the longest shortest path, n - 1 edges, needs every squaring
        for n in range(1, 40):
            edges = np.eye(n, k=1, dtype=bool)
            assert np.array_equal(markov._closure(edges), np.triu(np.ones((n, n), dtype=bool)))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_skewed_binary_high_precision(self):
        expected = entropy_bits_highprec([0.3, 0.7])
        assert entropy([0.3, 0.7]) == pytest.approx(expected, abs=1e-12)
        assert entropy([0.3, 0.7]) == pytest.approx(0.881290899, abs=1e-9)


def beliefs_with_zeros(rng, n, count=300):
    """Random beliefs with zero entries, and some one-hot rows (entropy -0.0)."""
    rows = rng.dirichlet(np.full(n, 0.5), size=count)
    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
    sums = rows.sum(axis=1, keepdims=True)
    rows = np.where(sums > 0.0, rows / np.where(sums > 0.0, sums, 1.0), 0.0)
    rows[:10] = np.eye(n)[rng.integers(n, size=10)]
    return rows


class TestEntropies:
    @pytest.mark.parametrize("n", range(1, 20))
    def test_rows_match_entropy_bit_for_bit(self, n):
        rows = beliefs_with_zeros(np.random.default_rng(n), n)
        want = np.array([entropy(row) for row in rows])
        assert np.array_equal(entropies(rows).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [8, 11, 16])
    def test_long_rows_with_zeros_match_high_precision(self, n):
        rows = beliefs_with_zeros(np.random.default_rng(n), n, count=60)
        want = np.array([entropy_bits_highprec(row) for row in rows.tolist()])
        assert np.max(np.abs(entropies(rows) - want)) <= 8 * np.finfo(float).eps * np.log2(n)

    def test_sparse_row_of_eight_entries(self):
        # a sum over the nonzero entries alone groups the terms differently
        # and reads 1.7551496630526413
        x = [0.0, 0.27945776203891104, 0.48822735564075165, 0.0021457932684020723,
             0.0, 0.12326053592486269, 0.10690855312707255, 0.0]
        assert entropy(x) == entropies(np.array([x]))[0] == 1.7551496630526415

    def test_stacked_rows(self):
        rng = np.random.default_rng(4)
        stack = beliefs_with_zeros(rng, 5, count=60).reshape(4, 3, 5, 5)
        want = np.array([entropy(row) for row in stack.reshape(-1, 5)]).reshape(4, 3, 5)
        assert np.array_equal(entropies(stack), want)


class TestBeliefOps:
    def test_propagate_reset_belief(self, fig1_chain):
        assert np.allclose(belief_propagate(fig1_chain, [0.0, 1.0]), [0.3, 0.7], atol=1e-15)

    def test_propagate_one_product(self, fig1_chain):
        expected = np.array(FIG1) @ np.array([0.3, 0.7])  # oracle: plain matvec
        out = belief_propagate(fig1_chain, [0.3, 0.7])
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [0.507, 0.493], atol=1e-12)

    def test_equilibrium_is_fixed_point(self, fig1_chain):
        w = fig1_chain.equilibrium
        assert np.allclose(belief_propagate(fig1_chain, w), w, atol=1e-12)

    def test_dimension_mismatch(self, fig1_chain):
        with pytest.raises(DimensionMismatch):
            belief_propagate(fig1_chain, [0.2, 0.3, 0.5])

    def test_reset_columns(self, fig1_chain):
        assert np.allclose(belief_reset(fig1_chain, 1), [0.99, 0.01])
        assert np.allclose(belief_reset(fig1_chain, 2), [0.3, 0.7])

    def test_reset_out_of_range(self, fig1_chain):
        for k in (0, 3, -1):
            with pytest.raises(IndexOutOfRange):
                belief_reset(fig1_chain, k)

    def test_reset_entropy_nonnegative(self, fig1_chain):
        for k in (1, 2):
            assert entropy(belief_reset(fig1_chain, k)) >= 0.0


class TestNStepColumn:
    def test_one_step_is_reset(self, fig1_chain):
        for k in (1, 2):
            assert np.array_equal(n_step_column(fig1_chain, k, 1), belief_reset(fig1_chain, k))

    def test_two_step_matches_matrix_power(self, fig1_chain):
        expected = np.linalg.matrix_power(np.array(FIG1), 2)[:, 1]  # oracle
        assert np.allclose(n_step_column(fig1_chain, 2, 2), expected, atol=1e-14)
        assert np.allclose(n_step_column(fig1_chain, 2, 2), [0.507, 0.493], atol=1e-12)

    def test_converges_to_equilibrium(self, fig1_chain):
        x = n_step_column(fig1_chain, 1, 2000)
        assert np.allclose(x, [0.9677, 0.0323], atol=5e-5)
        assert np.max(np.abs(x - fig1_chain.equilibrium)) < 1e-12

    def test_rejects_zero_steps(self, fig1_chain):
        with pytest.raises(ValueError):
            n_step_column(fig1_chain, 1, 0)


class TestUoi:
    def test_equilibrium_fixed_point(self, fig1_chain):
        assert uoi(fig1_chain, fig1_chain.equilibrium) == pytest.approx(
            entropy(fig1_chain.equilibrium), abs=1e-12
        )

    def test_after_observing_state_two(self, fig1_chain):
        assert uoi(fig1_chain, [0.0, 1.0]) == pytest.approx(
            entropy_bits_highprec([0.3, 0.7]), abs=1e-12
        )

    def test_after_observing_state_one(self, fig1_chain):
        # low curve of the motivating example: observing state 1 stays informative
        expected = entropy_bits_highprec([0.99, 0.01])
        assert uoi(fig1_chain, [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert expected < 0.1 < entropy_bits_highprec([0.3, 0.7])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 50))
def test_matrix_powers_stay_stochastic(seed, n, steps):
    chain = random_chain(np.random.default_rng(seed), n, max_eig2=1.0)
    for k in range(1, n + 1):
        assert abs(n_step_column(chain, k, steps).sum() - 1.0) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.integers(2, 5))
def test_entropy_is_concave(seed, theta, n):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(n))
    y = rng.dirichlet(np.ones(n))
    mix = entropy(theta * x + (1 - theta) * y)
    assert mix >= theta * entropy(x) + (1 - theta) * entropy(y) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(1, 40))
def test_symmetric_binary_chain_uoi_is_age_function(p, n):
    # columns are permutations of each other: UoI collapses to a function of age
    chain = validate_chain([[p, 1 - p], [1 - p, p]])
    assert uoi(chain, n_step_column(chain, 1, n)) == pytest.approx(
        uoi(chain, n_step_column(chain, 2, n)), abs=1e-12
    )


def test_columns_converge_monotonically_in_tail():
    rng = np.random.default_rng(424242)
    for _ in range(5):
        chain = random_chain(rng, int(rng.integers(2, 5)))
        for k in range(1, chain.n_states + 1):
            gaps = []
            x = belief_reset(chain, k)
            for _ in range(200):
                gaps.append(np.max(np.abs(x - chain.equilibrium)))
                x = chain.transition @ x
            gaps = np.array(gaps)
            assert gaps[-1] < 1e-8
            tail = gaps[100:]
            assert np.all(np.diff(tail) <= 1e-15)
