"""Charge accounting and the guaranteed branching-vs-polytree gap."""

import math

import pytest

from polytreelab.bounds import (
    DEFAULT_TOLERANCE_BITS,
    MIN_ENTROPY_EPS,
    charge_report,
    components_with_sinks,
    entropy_range,
    verify_bounds,
)
from polytreelab.branching import learn_optimal_branching
from polytreelab.distribution import conditional_entropy, entropy
from polytreelab.errors import ValidationError
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
)
from polytreelab.search import exact_optimal_polytree
from polytreelab.structure import Structure, score


def random_cases():
    for seed in range(12):
        if seed % 2:
            dist = random_joint_distribution(
                [2 + (seed + i) % 2 for i in range(3 + seed % 3)], seed=seed
            )
        else:
            dist, _ = random_polytree_instance(4 + seed % 2, 2, 2, seed=seed)
        yield dist


def charge_rows(dist, structure):
    """The uncapped subtree charge rows that ``verify_bounds`` audits."""
    report = verify_bounds(dist, structure, learn_optimal_branching(dist))
    return [r for r in report.subtree_rows if r.bound == "subtree_charge_bound"]


class TestChargeAccounting:
    def test_subtree_residual_decomposes_over_parents(self):
        for dist in random_cases():
            structure = exact_optimal_polytree(dist, 2).best
            report = charge_report(dist, structure)
            by_node = {c.node: c for c in report.per_node}
            for node in range(structure.n):
                expected = by_node[node].residual_bits + sum(
                    by_node[p].subtree_residual_bits
                    for p in structure.parents[node]
                )
                assert by_node[node].subtree_residual_bits == pytest.approx(
                    expected, abs=1e-9
                )

    def test_subtree_residual_dominates_node_entropy(self):
        # The residuals of a node's ancestor closure always pay for at least
        # the node's own entropy, whatever the structure.
        for dist in random_cases():
            structure = exact_optimal_polytree(dist, 2).best
            report = charge_report(dist, structure)
            for charge in report.per_node:
                assert (
                    charge.subtree_residual_bits
                    >= entropy(dist, [charge.node]) - 1e-9
                )

    def test_single_parent_nodes_carry_no_charge(self):
        for dist in random_cases():
            structure = exact_optimal_polytree(dist, 2).best
            report = charge_report(dist, structure)
            for charge in report.per_node:
                if len(structure.parents[charge.node]) < 2:
                    assert charge.charge_bits == 0.0

    def test_charges_match_hand_computation_on_parity2(self):
        dist, generating = parity_fixture("parity2")
        report = charge_report(dist, generating)
        by_node = {c.node: c for c in report.per_node}
        assert by_node[0].residual_bits == pytest.approx(0.0, abs=1e-9)
        assert by_node[0].subtree_residual_bits == pytest.approx(2.0, abs=1e-9)
        # Two parent subtrees each carry one residual bit; the cheaper one
        # is charged.
        assert by_node[0].charge_bits == pytest.approx(1.0, abs=1e-9)
        assert by_node[0].capped_charge_bits == pytest.approx(1.0, abs=1e-9)

    def test_charge_report_requires_polytree(self):
        dist = random_joint_distribution([2, 2, 2], seed=3)
        with pytest.raises(ValidationError):
            charge_report(dist, Structure(3, [(1,), (2,), (0,)]))

    def test_entropy_range(self):
        dist, _ = parity_fixture("parity2")
        assert entropy_range(dist) == (
            pytest.approx(1.0, abs=1e-9),
            pytest.approx(1.0, abs=1e-9),
        )


class TestSubtreeChargeBound:
    def test_rows_hold_on_oracle_outputs(self):
        for dist in random_cases():
            structure = exact_optimal_polytree(dist, 2).best
            if any(len(sinks) > 1 for _, sinks in components_with_sinks(structure)):
                continue
            rows = charge_rows(dist, structure)
            assert rows and all(row.passed for row in rows)

    def test_parity2_bound_values(self):
        dist, generating = parity_fixture("parity2")
        rows = [r for r in charge_rows(dist, generating) if r.node == 0]
        assert len(rows) == 1
        assert rows[0].lhs_bits == pytest.approx(1.0, abs=1e-9)
        assert rows[0].rhs_bits == pytest.approx(0.5 * 2.0 * math.log2(3), abs=1e-9)
        assert rows[0].passed


class TestChargeInequalitiesOnSkippedComponents:
    """``verify_bounds`` writes subtree rows only for single-sink components.
    The two per-subtree inequalities still hold at every node of the exact
    optima below, skipped components included."""

    @staticmethod
    def exact_optima():
        # 80 instances at n = 6: random joints and random 2-polytrees, each
        # searched with k = 2 and with no indegree bound.
        for seed in range(20):
            dists = (
                random_joint_distribution([2] * 6, seed=seed),
                random_polytree_instance(6, 2, 2, seed=seed)[0],
            )
            for dist in dists:
                for k in (2, None):
                    yield dist, exact_optimal_polytree(dist, k).best

    def test_both_inequalities_hold_at_every_node(self):
        skipped_instances = nodes_checked = 0
        for dist, optimal in self.exact_optima():
            report = verify_bounds(dist, optimal, learn_optimal_branching(dist))
            skipped_instances += report.skipped_multi_sink_components > 0
            charges = report.charges
            u_bits, l_bits = charges.max_node_entropy_bits, charges.min_node_entropy_bits
            for info in charges.per_node:
                subtree = [charges.per_node[x] for x in info.subtree_nodes]
                residual = info.subtree_residual_bits
                charge_sum = sum(c.charge_bits for c in subtree)
                rhs = 0.5 * residual * math.log2(len(subtree))
                assert charge_sum <= rhs + DEFAULT_TOLERANCE_BITS
                if l_bits > MIN_ENTROPY_EPS:
                    capped_sum = sum(c.capped_charge_bits for c in subtree)
                    factor = 2.5 + 0.5 * math.log2(u_bits / l_bits)
                    assert capped_sum <= factor * residual + DEFAULT_TOLERANCE_BITS
                nodes_checked += 1
        assert nodes_checked == 80 * 6
        # The rows verify_bounds leaves out are covered here.
        assert skipped_instances > 0


class TestComponentsWithSinks:
    def test_reports_every_component_and_sink(self):
        s = Structure(5, [(), (0,), (), (2,), ()])
        got = components_with_sinks(s)
        assert ((0, 1), (1,)) in got
        assert ((2, 3), (3,)) in got
        assert ((4,), (4,)) in got

    def test_v_structure_has_one_sink(self):
        s = Structure(3, [(1, 2), (), ()])
        assert components_with_sinks(s) == [((0, 1, 2), (0,))]


class TestVerifyBounds:
    def test_all_bounds_hold_on_random_instances(self):
        for dist in random_cases():
            branching = learn_optimal_branching(dist)
            optimal = exact_optimal_polytree(dist).best
            report = verify_bounds(dist, optimal, branching)
            assert report.all_passed
            assert report.branching_score_bits >= report.optimal_score_bits - 1e-9

    def test_bound_names_and_factors(self):
        dist, _ = parity_fixture("parity3")
        branching = learn_optimal_branching(dist)
        optimal = exact_optimal_polytree(dist).best
        report = verify_bounds(dist, optimal, branching)
        by_name = {b.name: b for b in report.bounds}
        n = dist.n
        opt = report.optimal_score_bits
        assert by_name["entropy_ratio_bound"].rhs_bits == pytest.approx(
            (1 + 1.0 / 1.0) * opt, abs=1e-9
        )
        assert by_name["log_node_count_bound"].rhs_bits == pytest.approx(
            (1 + 0.5 * math.log2(n)) * opt, abs=1e-9
        )
        n0, nmulti = 3, 1
        assert by_name["log_effective_count_bound"].rhs_bits == pytest.approx(
            (1 + 0.5 * math.log2(n0 + nmulti)) * opt, abs=1e-9
        )
        assert by_name["entropy_spread_bound"].rhs_bits == pytest.approx(
            (3.5 + 0.5 * math.log2(1.0)) * opt, abs=1e-9
        )

    def test_degenerate_entropy_marks_ratio_bounds_inapplicable(self):
        import numpy as np
        from polytreelab.distribution import Distribution, VariableMeta

        table = np.zeros((2, 2))
        table[0, 0] = 0.5
        table[0, 1] = 0.5
        dist = Distribution([VariableMeta("A", 2), VariableMeta("B", 2)], table)
        branching = learn_optimal_branching(dist)
        optimal = exact_optimal_polytree(dist).best
        report = verify_bounds(dist, optimal, branching)
        by_name = {b.name: b for b in report.bounds}
        assert not by_name["entropy_ratio_bound"].applicable
        assert not by_name["entropy_spread_bound"].applicable
        assert by_name["log_node_count_bound"].applicable

    def test_multi_sink_components_are_counted_not_audited(self):
        dist = random_joint_distribution([2, 2, 2], seed=9)
        branching = learn_optimal_branching(dist)
        fan_out = Structure(3, [(), (0,), (0,)])
        report = verify_bounds(dist, fan_out, branching)
        assert report.skipped_multi_sink_components == 1
        assert report.subtree_rows == ()

    def test_requires_branching_argument(self):
        dist = random_joint_distribution([2, 2, 2], seed=10)
        v = Structure(3, [(1, 2), (), ()])
        with pytest.raises(ValidationError):
            verify_bounds(dist, v, v)

    def test_residuals_match_direct_conditional_entropies(self):
        for dist in random_cases():
            structure = exact_optimal_polytree(dist, 2).best
            report = charge_report(dist, structure)
            for charge in report.per_node:
                direct = conditional_entropy(
                    dist, charge.node, structure.parents[charge.node]
                )
                assert charge.residual_bits == pytest.approx(direct, abs=1e-9)
