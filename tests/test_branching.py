"""Optimal branching learner against the exhaustive oracle."""

import numpy as np
import pytest

from brute_force import brute_force_branching
from polytreelab.branching import (
    OMEGA,
    WeightedEdge,
    learn_optimal_branching,
    mutual_information_edges,
)
from polytreelab.distribution import Distribution, VariableMeta
from polytreelab.errors import ValidationError
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
)
from polytreelab.structure import Structure, is_branching, score


def copy_pair_with_bystander() -> Distribution:
    """X2 is an exact copy of the fair coin X1; X3 is independent and fair."""
    table = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x3 in range(2):
            table[x1, x1, x3] = 0.25
    metas = [VariableMeta(f"X{i + 1}", 2) for i in range(3)]
    return Distribution(metas, table)


class TestMutualInformationEdges:
    def test_sorted_by_weight_then_lexicographic(self):
        dist = random_joint_distribution([2, 2, 2], seed=11)
        edges = mutual_information_edges(dist)
        keys = [(-e.weight, e.a, e.b) for e in edges]
        assert keys == sorted(keys)

    def test_all_pairs_present_once(self):
        dist = random_joint_distribution([2, 2, 2, 2], seed=12)
        edges = mutual_information_edges(dist)
        assert sorted((e.a, e.b) for e in edges) == [
            (a, b) for a in range(4) for b in range(a + 1, 4)
        ]

    def test_weighted_edge_validation(self):
        with pytest.raises(ValidationError):
            WeightedEdge(2, 1, 0.5)
        with pytest.raises(ValidationError):
            WeightedEdge(0, 1, -0.5)


class TestLearnOptimalBranching:
    def test_result_is_always_a_branching(self):
        for seed in range(20):
            dist = random_joint_distribution([2, 3, 2, 2], seed=seed)
            assert is_branching(learn_optimal_branching(dist))

    def test_copy_pair_scores_two_bits(self):
        dist = copy_pair_with_bystander()
        structure = learn_optimal_branching(dist)
        assert score(dist, structure).total_bits == pytest.approx(2.0, abs=1e-9)
        assert structure.edges() == [(0, 1)]

    def test_independent_variables_give_empty_forest(self):
        table = np.full((2, 2, 2), 1.0 / 8)
        dist = Distribution([VariableMeta(f"X{i}", 2) for i in range(3)], table)
        structure = learn_optimal_branching(dist)
        assert structure.edges() == []

    def test_weight_floor_suppresses_rounding_noise(self):
        assert OMEGA == 1e-12

    def test_parity_pairs_are_invisible(self):
        dist, _ = parity_fixture("parity3")
        structure = learn_optimal_branching(dist)
        assert structure.edges() == []
        assert score(dist, structure).total_bits == pytest.approx(4.0, abs=1e-9)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_joints(self):
        for seed in range(30):
            n = 2 + seed % 4
            dist = random_joint_distribution([2 + (seed + i) % 2 for i in range(n)], seed=seed)
            fast = score(dist, learn_optimal_branching(dist)).total_bits
            brute = score(dist, brute_force_branching(dist)).total_bits
            assert fast == pytest.approx(brute, abs=1e-9)

    def test_matches_brute_force_on_polytree_instances(self):
        for seed in range(20):
            dist, _ = random_polytree_instance(4 + seed % 2, 2, 2, seed=seed)
            fast = score(dist, learn_optimal_branching(dist)).total_bits
            brute = score(dist, brute_force_branching(dist)).total_bits
            assert fast == pytest.approx(brute, abs=1e-9)

    def test_brute_force_tie_break_is_lexicographic(self):
        table = np.full((2, 2), 0.25)
        dist = Distribution([VariableMeta("A", 2), VariableMeta("B", 2)], table)
        assert brute_force_branching(dist) == Structure.empty(2)
