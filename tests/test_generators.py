"""Synthetic instance builders: parity tables, XOR trees, seeded models; and
the simplex-code family, built here, at the same 2n/(n+1) ratio as the XOR tree."""

import numpy as np
import pytest

from polytreelab.branching import learn_optimal_branching
from polytreelab.distribution import (
    Distribution,
    VariableMeta,
    bernoulli_bias_for_entropy,
    conditional_entropy,
    entropy,
    marginal,
)
from polytreelab.errors import CapExceededError, ValidationError
from polytreelab.generators import (
    PARITY_FIXTURES,
    joint_from_conditionals,
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
    xor_tree_family,
)
from polytreelab.search import exact_optimal_polytree
from polytreelab.structure import Structure, is_polytree, max_indegree, score


class TestJointFromConditionals:
    def test_independent_pair_is_outer_product(self):
        metas = [VariableMeta("A", 2), VariableMeta("B", 3)]
        structure = Structure(2, [(), ()])
        pa = np.array([0.25, 0.75])
        pb = np.array([0.2, 0.3, 0.5])
        dist = joint_from_conditionals(metas, structure, [pa, pb])
        np.testing.assert_allclose(dist.table, np.outer(pa, pb), atol=1e-12)

    def test_chain_copy(self):
        metas = [VariableMeta("A", 2), VariableMeta("B", 2)]
        structure = Structure(2, [(), (0,)])
        pa = np.array([0.4, 0.6])
        copy = np.eye(2)
        dist = joint_from_conditionals(metas, structure, [pa, copy])
        np.testing.assert_allclose(dist.table, np.diag(pa), atol=1e-12)

    def test_v_structure_matches_direct_enumeration(self):
        rng = np.random.default_rng(7)
        metas = [VariableMeta("A", 2), VariableMeta("B", 3), VariableMeta("C", 2)]
        structure = Structure(3, [(1, 2), (), ()])
        pb = rng.dirichlet(np.ones(3))
        pc = rng.dirichlet(np.ones(2))
        pa = rng.dirichlet(np.ones(2), size=(3, 2))
        dist = joint_from_conditionals(metas, structure, [pa, pb, pc])
        expected = np.zeros((2, 3, 2))
        for a in range(2):
            for b in range(3):
                for c in range(2):
                    expected[a, b, c] = pa[b, c, a] * pb[b] * pc[c]
        np.testing.assert_allclose(dist.table, expected, atol=1e-12)

    def test_rejects_variable_count_mismatch(self):
        metas = [VariableMeta("A", 2)]
        with pytest.raises(ValidationError):
            joint_from_conditionals(metas, Structure(2, [(), ()]), [np.ones(2) / 2] * 2)

    def test_rejects_cyclic_skeleton(self):
        metas = [VariableMeta(f"X{i}", 2) for i in range(3)]
        cyclic = Structure(3, [(1,), (2,), (0,)])
        cpt = np.eye(2)
        with pytest.raises(ValidationError) as exc:
            joint_from_conditionals(metas, cyclic, [cpt, cpt, cpt])
        assert "polytree" in str(exc.value)

    def test_rejects_wrong_cpt_shape(self):
        metas = [VariableMeta("A", 2), VariableMeta("B", 2)]
        structure = Structure(2, [(), (0,)])
        with pytest.raises(ValidationError):
            joint_from_conditionals(metas, structure, [np.ones(2) / 2, np.ones(3) / 3])

    def test_rejects_unnormalized_rows(self):
        metas = [VariableMeta("A", 2)]
        structure = Structure(1, [()])
        with pytest.raises(ValidationError):
            joint_from_conditionals(metas, structure, [np.array([0.5, 0.6])])

    def test_rejects_negative_entries(self):
        metas = [VariableMeta("A", 2)]
        structure = Structure(1, [()])
        with pytest.raises(ValidationError):
            joint_from_conditionals(metas, structure, [np.array([1.2, -0.2])])

    def test_state_cap_checked_before_allocation(self):
        metas = [VariableMeta(f"X{i}", 2) for i in range(3)]
        structure = Structure(3, [(), (), ()])
        cpts = [np.ones(2) / 2] * 3
        with pytest.raises(CapExceededError) as exc:
            joint_from_conditionals(metas, structure, cpts, max_states=7)
        assert exc.value.constraint == "state_cap"


class TestParityFixtures:
    def test_fixture_names(self):
        assert PARITY_FIXTURES == ("parity2", "parity3")

    def test_parity2_table(self):
        dist, generating = parity_fixture("parity2")
        assert dist.names == ("X1", "X2", "X3")
        assert generating.parents == ((1, 2), (), ())
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    want = 0.25 if x1 == (x2 ^ x3) else 0.0
                    assert dist.table[x1, x2, x3] == pytest.approx(want)
        assert score(dist, generating).total_bits == pytest.approx(2.0, abs=1e-9)

    def test_parity3_table(self):
        dist, generating = parity_fixture("parity3")
        assert dist.n == 4
        assert generating.parents == ((1, 2, 3), (), (), ())
        support = np.argwhere(dist.table > 0)
        assert len(support) == 8
        for x1, x2, x3, x4 in support:
            assert x1 == (x2 ^ x3 ^ x4)
            assert dist.table[x1, x2, x3, x4] == pytest.approx(0.125)
        assert score(dist, generating).total_bits == pytest.approx(3.0, abs=1e-9)

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ValidationError):
            parity_fixture("parity9")


class TestXorTreeFamily:
    def test_depth_one_shape_and_score(self):
        dist, generating = xor_tree_family(1, 0.3)
        assert dist.n == 3
        assert dist.names == ("n0", "n1", "n2")
        assert generating.parents == ((1, 2), (), ())
        assert score(dist, generating).total_bits == pytest.approx(2 * 0.3, abs=1e-9)

    def test_generating_score_across_depths(self):
        for depth in (1, 2, 3):
            for eps in (0.3, 1.0):
                dist, generating = xor_tree_family(depth, eps)
                assert dist.n == 2 ** (depth + 1) - 1
                got = score(dist, generating).total_bits
                assert got == pytest.approx(2**depth * eps, abs=1e-9)
                # The joint entropy, which no structure scores below: the
                # generating polytree is optimal.
                assert got == pytest.approx(entropy(dist), abs=1e-12)

    def test_eps_one_ratio_is_exact(self):
        # At eps = 1 every pair is independent, so the best branching scores
        # n bits against the 2**depth = (n + 1) / 2 of the optimal polytree.
        for depth in (1, 2, 3):
            dist, generating = xor_tree_family(depth, 1.0)
            branching = score(dist, learn_optimal_branching(dist)).total_bits
            ratio = branching / score(dist, generating).total_bits
            assert ratio == pytest.approx(2 * dist.n / (dist.n + 1), abs=1e-12)

    def test_leaves_have_entropy_eps(self):
        eps = 0.3
        dist, generating = xor_tree_family(2, eps)
        first_leaf = 2**2 - 1
        for i in range(dist.n):
            if not generating.parents[i]:
                assert i >= first_leaf
                assert entropy(dist, [i]) == pytest.approx(eps, abs=1e-9)

    def test_internal_nodes_are_deterministic_given_parents(self):
        dist, generating = xor_tree_family(2, 0.3)
        for i in range(dist.n):
            if generating.parents[i]:
                residual = conditional_entropy(
                    dist, i, generating.parents[i]
                )
                assert residual == pytest.approx(0.0, abs=1e-9)

    def test_root_marginal_from_leaf_bias(self):
        eps = 0.3
        dist, _ = xor_tree_family(1, eps)
        p = bernoulli_bias_for_entropy(eps)
        root_one = 2 * p * (1 - p)
        marg = marginal(dist, [0])
        assert marg.table[1] == pytest.approx(root_one, abs=1e-12)

    def test_eps_one_support_is_uniform_over_leaf_patterns(self):
        # Internals are deterministic, so the support has one point per
        # leaf pattern, each equally likely when the leaves are fair.
        dist, _ = xor_tree_family(2, 1.0)
        support = np.argwhere(dist.table > 0)
        assert len(support) == 16
        np.testing.assert_allclose(
            dist.table[dist.table > 0], np.full(16, 1.0 / 16), atol=1e-12
        )

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            xor_tree_family(0, 0.3)

    def test_eps_validation(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                xor_tree_family(1, eps)

    def test_depth_four_exceeds_default_state_cap(self):
        with pytest.raises(CapExceededError) as exc:
            xor_tree_family(4, 0.3)
        assert exc.value.constraint == "state_cap"


def simplex_code(k):
    """The n = 2**k - 1 non-zero GF(2) combinations of k fair bits: variable
    ``c - 1`` is the parity of the bits set in ``c``, and each of the 2**k
    states of the bits has mass 2**-k. Any two variables are independent."""
    n = 2**k - 1
    table = np.zeros((2,) * n)
    for x in range(2**k):
        table[tuple(bin(c & x).count("1") % 2 for c in range(1, n + 1))] = 2.0**-k
    return Distribution([VariableMeta(f"V{c}", 2) for c in range(1, n + 1)], table)


class TestSimplexCodeFamily:
    """The other family at the 2n/(n+1) ceiling of the XOR tree at eps 1."""

    @pytest.mark.parametrize("k, optimum", [(2, 2.0), (3, 4.0)])
    @pytest.mark.parametrize("bound", [2, None])
    def test_exact_search_finds_half_of_n_plus_one(self, k, optimum, bound):
        # At k = 3 the optimum, 4 bits, is above H(X) = 3 bits: unlike the
        # XOR tree, no polytree scores the joint entropy.
        dist = simplex_code(k)
        assert entropy(dist) == pytest.approx(k, abs=1e-12)
        report = exact_optimal_polytree(dist, bound)
        assert report.branching_score_bits == pytest.approx(dist.n, abs=1e-12)
        assert report.best_score_bits == pytest.approx(optimum, abs=1e-12)
        assert report.ratio == pytest.approx(2 * dist.n / (dist.n + 1), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hub_wiring_scores_half_of_n_plus_one(self, k):
        # Hub h = e_k; every other pair {c, c xor h} wires c xor h <- {c, h}.
        dist = simplex_code(k)
        n, hub = dist.n, 2 ** (k - 1)
        parents = [()] * n
        for c in range(1, hub):
            parents[(c | hub) - 1] = (c - 1, hub - 1)
        wiring = Structure(n, parents)
        assert is_polytree(wiring) and max_indegree(wiring) == 2
        assert score(dist, wiring).total_bits == pytest.approx((n + 1) / 2, abs=1e-12)
        branching = score(dist, learn_optimal_branching(dist)).total_bits
        assert branching == pytest.approx(n, abs=1e-12)


class TestRandomJointDistribution:
    def test_deterministic_per_seed(self):
        a = random_joint_distribution([2, 3, 2], seed=5)
        b = random_joint_distribution([2, 3, 2], seed=5)
        np.testing.assert_array_equal(a.table, b.table)
        c = random_joint_distribution([2, 3, 2], seed=6)
        assert not np.array_equal(a.table, c.table)

    def test_valid_distribution(self):
        for seed in range(10):
            dist = random_joint_distribution([2, 2, 3], seed=seed)
            assert dist.names == ("X1", "X2", "X3")
            assert dist.table.sum() == pytest.approx(1.0, abs=1e-9)
            assert (dist.table >= 0).all()


class TestRandomPolytreeInstance:
    def test_deterministic_per_seed(self):
        d1, s1 = random_polytree_instance(5, 2, 2, seed=11)
        d2, s2 = random_polytree_instance(5, 2, 2, seed=11)
        assert s1 == s2
        np.testing.assert_array_equal(d1.table, d2.table)

    def test_structures_are_polytrees_with_bounded_indegree(self):
        for seed in range(25):
            k = 1 + seed % 3
            _, structure = random_polytree_instance(6, k, 2, seed=seed)
            assert is_polytree(structure)
            assert max_indegree(structure) <= k

    def test_zero_indegree_budget_gives_empty_structure(self):
        _, structure = random_polytree_instance(5, 0, 2, seed=3)
        assert structure == Structure.empty(5)

    def test_mixed_arities(self):
        dist, _ = random_polytree_instance(4, 2, [2, 3, 2, 4], seed=1)
        assert dist.arities == (2, 3, 2, 4)
        assert dist.table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_polytree_instance(0, 2)
        with pytest.raises(ValidationError):
            random_polytree_instance(3, -1)
        with pytest.raises(ValidationError):
            random_polytree_instance(3, 2, [2, 2])

    def test_generating_score_matches_conditional_entropies(self):
        dist, structure = random_polytree_instance(5, 2, 2, seed=4)
        total = score(dist, structure).total_bits
        direct = sum(
            conditional_entropy(dist, i, structure.parents[i])
            for i in range(5)
        )
        assert total == pytest.approx(direct, abs=1e-9)


class TestSolveSourceBias:
    def test_endpoints_and_window(self):
        assert bernoulli_bias_for_entropy(1.0) == 0.5
        assert 0.10 < bernoulli_bias_for_entropy(0.5) < 0.12
        for eps in (0.1, 0.3, 0.7):
            p = bernoulli_bias_for_entropy(eps)
            x = np.array([p, 1 - p])
            assert -(x * np.log2(x)).sum() == pytest.approx(eps, abs=1e-9)
