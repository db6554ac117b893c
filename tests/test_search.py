"""Exhaustive polytree search and greedy local search."""

import numpy as np
import pytest

from polytreelab.branching import brute_force_branching, learn_optimal_branching
from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import Distribution, VariableMeta
from polytreelab.errors import CapExceededError, InvariantError, ValidationError
from polytreelab.gadget import CompiledGadget, compile_cnf
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
)
from polytreelab.search import (
    EXACT_MAX_NODES,
    _check_k_polytree,
    exact_optimal_polytree,
    local_search_polytree,
)
from polytreelab.structure import (
    Structure,
    is_polytree,
    max_indegree,
    score,
)


class TestExactSearch:
    def test_parity3_ladder(self):
        dist, _ = parity_fixture("parity3")
        assert exact_optimal_polytree(dist, 3).best_score_bits == pytest.approx(
            3.0, abs=1e-9
        )
        assert exact_optimal_polytree(dist, 2).best_score_bits == pytest.approx(
            4.0, abs=1e-9
        )
        report = exact_optimal_polytree(dist)
        assert report.best_score_bits == pytest.approx(3.0, abs=1e-9)
        assert report.ratio == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_best_is_valid_polytree_within_indegree(self):
        for seed in range(12):
            dist = random_joint_distribution([2, 2, 3, 2], seed=seed)
            for k in (1, 2):
                report = exact_optimal_polytree(dist, k)
                assert is_polytree(report.best)
                assert max_indegree(report.best) <= k

    def test_k1_matches_branching_oracle(self):
        for seed in range(15):
            dist = random_joint_distribution(
                [2 + (seed + i) % 2 for i in range(4)], seed=300 + seed
            )
            exact = exact_optimal_polytree(dist, 1).best_score_bits
            brute = score(dist, brute_force_branching(dist)).total_bits
            assert exact == pytest.approx(brute, abs=1e-9)

    def test_optimum_never_above_any_candidate(self):
        for seed in range(8):
            dist, generating = random_polytree_instance(5, 2, 2, seed=seed)
            report = exact_optimal_polytree(dist, 2)
            assert (
                report.best_score_bits
                <= score(dist, generating).total_bits + 1e-9
            )
            assert report.best_score_bits <= report.branching_score_bits + 1e-9

    def test_rerun_on_a_warm_memo_matches_the_first_run(self):
        dist = random_joint_distribution([2, 2, 2, 3], seed=77)
        first = exact_optimal_polytree(dist, 2)
        again = exact_optimal_polytree(dist, 2)
        assert first.best == again.best
        assert first.best_score_bits == again.best_score_bits
        assert first.instances_enumerated == again.instances_enumerated

    def test_node_cap_names_constraint(self):
        dist = random_joint_distribution([2] * (EXACT_MAX_NODES + 1), seed=1)
        with pytest.raises(CapExceededError) as exc:
            exact_optimal_polytree(dist)
        assert exc.value.constraint == "exact_search_max_nodes"

    def test_rejects_bad_k(self):
        dist = random_joint_distribution([2, 2], seed=2)
        with pytest.raises(ValidationError):
            exact_optimal_polytree(dist, -1)

    def test_ratio_undefined_when_optimum_is_free(self):
        table = np.zeros((2, 2))
        table[0, 0] = 1.0
        dist = Distribution([VariableMeta("A", 2), VariableMeta("B", 2)], table)
        report = exact_optimal_polytree(dist)
        assert report.best_score_bits == pytest.approx(0.0, abs=1e-12)
        assert report.ratio is None
        assert report.excess_bits == pytest.approx(0.0, abs=1e-9)

    def test_single_variable_instance(self):
        dist = Distribution([VariableMeta("A", 3)], np.array([0.2, 0.3, 0.5]))
        report = exact_optimal_polytree(dist)
        assert report.best == Structure.empty(1)
        assert report.instances_enumerated == 1


class TestLocalSearch:
    def test_never_worse_than_seed(self):
        for seed in range(20):
            dist = random_joint_distribution([2, 2, 2, 2], seed=400 + seed)
            seed_structure = learn_optimal_branching(dist)
            report = local_search_polytree(dist, 2, seed_structure)
            assert (
                report.best_score_bits
                <= score(dist, seed_structure).total_bits + 1e-9
            )
            assert is_polytree(report.best)
            assert max_indegree(report.best) <= 2

    def test_finds_obvious_single_edge_gains(self):
        # X2 copies X1, X3 copies X2: two add moves reach the 1-bit chain.
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        dist = Distribution([VariableMeta(f"X{i + 1}", 2) for i in range(3)], table)
        report = local_search_polytree(dist, 2, Structure.empty(3))
        assert report.best_score_bits == pytest.approx(1.0, abs=1e-9)

    def test_zero_budget_returns_seed(self):
        dist = random_joint_distribution([2, 2, 2], seed=5)
        seed_structure = Structure(3, [(), (0,), ()])
        report = local_search_polytree(dist, 2, seed_structure, budget=0)
        assert report.best == seed_structure

    def test_parity3_stalls_below_exact_optimum(self):
        # All pairwise and two-way gains are zero here, so no single move
        # improves on the empty seed; the three-parent optimum stays out of
        # reach of this move set and the gap is real, not a test artifact.
        dist, _ = parity_fixture("parity3")
        report = local_search_polytree(dist, 3, Structure.empty(4))
        assert report.best_score_bits == pytest.approx(4.0, abs=1e-9)
        exact = exact_optimal_polytree(dist, 3)
        assert exact.best_score_bits == pytest.approx(3.0, abs=1e-9)

    def test_validates_seed_structure(self):
        dist = random_joint_distribution([2, 2, 2], seed=6)
        diamond = Structure(3, [(), (0,), (0,)])
        with pytest.raises(ValidationError):
            local_search_polytree(dist, 1, Structure(3, [(1, 2), (), ()]))
        assert is_polytree(diamond)

    def test_matches_exact_often_on_small_instances(self):
        hits = 0
        total = 25
        for seed in range(total):
            dist = random_joint_distribution([2, 2, 2, 2], seed=500 + seed)
            exact = exact_optimal_polytree(dist, 2).best_score_bits
            got = local_search_polytree(dist, 2).best_score_bits
            assert got >= exact - 1e-9
            if abs(got - exact) <= 1e-9:
                hits += 1
        assert hits >= total // 2


def test_k_polytree_check_raises_a_structured_error():
    _check_k_polytree(Structure(3, [(), (0,), (0,)]), 1)
    for structure, k in (
        (Structure(3, [(), (0,), (0, 1)]), 2),  # undirected cycle 0-1-2
        (Structure(3, [(), (), (0, 1)]), 1),  # indegree 2 > 1
    ):
        with pytest.raises(InvariantError, match=f"left the {k}-polytrees"):
            _check_k_polytree(structure, k)


def _dense_joint(gadget: CompiledGadget) -> Distribution:
    """The gadget's joint as a dense table, by enumerating all its coins."""
    coins = sorted(gadget.coin_biases)
    index = np.arange(1 << len(coins))
    bits = {name: index >> pos & 1 for pos, name in enumerate(coins)}
    probs = np.ones(len(index))
    for name in coins:
        bias = gadget.coin_biases[name]
        probs *= np.where(bits[name] == 1, bias, 1.0 - bias)
    table = np.zeros([m.arity for m in gadget.variables])
    np.add.at(table, tuple(gadget._node_values(node, bits) for node in gadget.nodes), probs)
    return Distribution(gadget.variables, table)


def test_a_gadget_is_searched_like_its_dense_joint():
    formula = dict(bundled_formulas())["single_variable"]
    gadget, _ = compile_cnf(formula)
    dense = _dense_joint(gadget)
    assert len(gadget.coin_biases) == 7 and gadget.n == dense.n == 5
    for search in (exact_optimal_polytree, local_search_polytree):
        on_gadget, on_dense = search(gadget, 2), search(dense, 2)
        assert on_gadget.best == on_dense.best
        assert on_gadget.branching == on_dense.branching
        assert on_gadget.instances_enumerated == on_dense.instances_enumerated
        assert on_gadget.best_score_bits == pytest.approx(on_dense.best_score_bits, abs=1e-12)
        assert on_gadget.branching_score_bits == pytest.approx(
            on_dense.branching_score_bits, abs=1e-12
        )
    report = exact_optimal_polytree(gadget, 2)
    assert report.best_score_bits == pytest.approx(5.0, abs=1e-12)
    assert report.instances_enumerated == 2916
