"""Restricted CNF handling and the layered hardness construction."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from census import maxsat_plan_and_optimum, restricted_formulas
from polytreelab import cnf
from polytreelab.cnf import (
    CnfFormula,
    best_assignment,
    bundled_formulas,
    parse_dimacs,
    read_dimacs,
    satisfied_clauses,
)
from polytreelab.distribution import (
    binary_entropy_bits,
    empirical_distribution,
    entropy,
)
from polytreelab.errors import CapExceededError, FormatError, ValidationError
from polytreelab.gadget import (
    CLAUSE_BIAS,
    DEFAULT_BLOCKER_COPIES,
    DELTA_BITS,
    ENTROPY_QUERY_MAX_COINS,
    XOR_BIAS,
    CompiledGadget,
    GadgetParams,
    verify_gadget,
)
from polytreelab.structure import is_polytree, max_indegree

CORPUS = Path(cnf.__file__).parent / "data" / "cnf"
P = CLAUSE_BIAS
ALPHA = 2 * P * (1 - P)
DELTA = 1.0 - binary_entropy_bits(ALPHA)


def corpus():
    return dict(bundled_formulas())


class TestCnfFormula:
    def test_valid_formula(self):
        f = CnfFormula(2, [(1, 2), (1, -2), (-1, 2)])
        assert f.num_vars == 2
        assert f.num_clauses == 3
        assert f.clauses == ((1, 2), (1, -2), (-1, 2))

    def test_rejects_oversized_clause(self):
        with pytest.raises(ValidationError):
            CnfFormula(4, [(1, 2, 3, 4)])

    def test_rejects_empty_clause(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(), (1,), (1,), (-1,)])

    def test_rejects_repeated_variable_within_clause(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(1, -1), (1,), (-1,)])

    def test_rejects_zero_literal(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(0,), (1,), (-1,)])

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(1,), (1,), (-2,)])

    def test_rejects_wrong_occurrence_count(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(1,), (-1,)])

    def test_rejects_single_polarity_occurrences(self):
        with pytest.raises(ValidationError):
            CnfFormula(1, [(1,), (1,), (1,)])

    def test_occurrences_positive_majority(self):
        f = CnfFormula(1, [(1,), (1,), (-1,)])
        assert f.occurrences(1) == ((0, 1), (1, 1), (2, -1))

    def test_occurrences_negative_majority(self):
        f = CnfFormula(1, [(-1,), (1,), (-1,)])
        assert f.occurrences(1) == ((0, -1), (2, -1), (1, 1))

    def test_occurrences_match_a_scan_of_the_clauses(self):
        for name, f in bundled_formulas():
            for var in range(1, f.num_vars + 1):
                hits = [
                    (j, 1 if var in clause else -1)
                    for j, clause in enumerate(f.clauses)
                    if var in clause or -var in clause
                ]
                majority = [h for h in hits if sum(s == h[1] for _, s in hits) == 2]
                minority = [h for h in hits if h not in majority]
                assert f.occurrences(var) == (*majority, *minority), (name, var)

    def test_occurrences_out_of_range(self):
        f = CnfFormula(1, [(1,), (1,), (-1,)])
        with pytest.raises(ValidationError):
            f.occurrences(2)

    def test_satisfied_clauses(self):
        f = corpus()["two_variable"]
        assert satisfied_clauses(f, (1, 1)) == 3
        assert satisfied_clauses(f, (0, 0)) == 2
        assert satisfied_clauses(f, (1, 0)) == 2

    def test_best_assignment_values(self):
        assert best_assignment(corpus()["single_variable"]) == ((1,), 2)
        assert best_assignment(corpus()["two_variable"]) == ((1, 1), 3)
        asg, count = best_assignment(corpus()["three_variable"])
        assert count == 3
        assert asg == (0, 0, 1)
        assert satisfied_clauses(corpus()["three_variable"], asg) == 3

    def test_best_assignment_cap(self, monkeypatch):
        monkeypatch.setattr(cnf, "BEST_ASSIGNMENT_MAX_VARS", 2)
        with pytest.raises(CapExceededError) as exc:
            best_assignment(corpus()["three_variable"])
        assert exc.value.constraint == "best_assignment_max_vars"

    def test_corpus_contains_unsatisfiable_formula(self):
        # One bundled instance must exercise the m' < m case end to end.
        gaps = [
            f.num_clauses - best_assignment(f)[1] for _, f in bundled_formulas()
        ]
        assert any(gap > 0 for gap in gaps)


class TestDimacs:
    def test_reads_the_shipped_files(self):
        for name, f in bundled_formulas():
            again = read_dimacs(CORPUS / f"{name}.cnf")
            assert again.num_vars == f.num_vars
            assert again.clauses == f.clauses

    def test_parses_comments_and_multiline_clauses(self):
        text = "c a note\n\np cnf 1 3\n1 0\n1\n0\n-1 0\n"
        f = parse_dimacs(text)
        assert f.clauses == ((1,), (1,), (-1,))

    def test_missing_problem_line(self):
        with pytest.raises(FormatError):
            parse_dimacs("1 0\n1 0\n-1 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf x 3\n1 0\n1 0\n-1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 1 3\n1 0\n1 0\n-1\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 1 2\n1 0\n1 0\n-1 0\n")


class TestBundledFormulas:
    def test_names_sorted_and_complete(self):
        names = [name for name, _ in bundled_formulas()]
        assert names == sorted(names)
        assert names == [
            "four_variable",
            "single_variable",
            "six_variable",
            "three_variable",
            "two_variable",
        ]

    def test_sizes(self):
        sizes = {name: (f.num_vars, f.num_clauses) for name, f in bundled_formulas()}
        assert sizes["single_variable"] == (1, 3)
        assert sizes["six_variable"] == (6, 6)


class TestGadgetParams:
    def test_default_constants(self):
        assert binary_entropy_bits(CLAUSE_BIAS) == pytest.approx(0.5, abs=1e-10)
        assert 0.10 < CLAUSE_BIAS < 0.12
        assert XOR_BIAS == pytest.approx(ALPHA, abs=1e-12)
        assert DELTA_BITS == pytest.approx(DELTA, abs=1e-12)
        assert DEFAULT_BLOCKER_COPIES == 5

    def test_constants_keep_their_bits(self):
        # Every gadget fixture and report digest rests on these three floats.
        assert CLAUSE_BIAS.hex() == "0x1.c2ac93f695678p-4"
        assert XOR_BIAS.hex() == "0x1.9116612e3485ap-3"
        assert DELTA_BITS.hex() == "0x1.2556a0b941d66p-2"

    def test_blocker_defaults_satisfy_margin(self):
        params = GadgetParams(include_inedge_blockers=True)
        q = params.blocker_bias
        k = params.blocker_copies
        assert q == CLAUSE_BIAS
        assert k == 5
        margin = k * (binary_entropy_bits(2 * q * (1 - q)) - binary_entropy_bits(q))
        assert margin > 1.0

    def test_rejects_weak_blocker_margin(self):
        with pytest.raises(ValidationError) as exc:
            GadgetParams(include_inedge_blockers=True, blocker_copies=1)
        assert "margin" in str(exc.value) or "weak" in str(exc.value)
        with pytest.raises(ValidationError):
            GadgetParams(
                include_inedge_blockers=True, blocker_bias=0.25, blocker_copies=5
            )

    def test_accepts_strong_nondefault_blockers(self):
        params = GadgetParams(
            include_inedge_blockers=True, blocker_bias=0.25, blocker_copies=10
        )
        assert params.blocker_bias == 0.25
        assert params.blocker_copies == 10

    def test_rejects_blocker_knobs_without_flag(self):
        with pytest.raises(ValidationError):
            GadgetParams(blocker_bias=0.3)
        with pytest.raises(ValidationError):
            GadgetParams(blocker_copies=7)


class TestCompiledGadget:
    def test_node_order_single_variable(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        assert compiled.names == ("C1", "C2", "C3", "R1", "X1")

    def test_node_order_three_variable(self):
        compiled = CompiledGadget(corpus()["three_variable"])
        assert compiled.names == (
            "C1", "C2", "C3",
            "R1", "X1", "R2", "X2", "R3", "X3",
            "L1", "L2",
        )

    def test_node_order_with_blockers(self):
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["three_variable"], params)
        assert len(compiled.names) == 17
        assert compiled.names[3:7] == ("A1", "B1", "R1", "X1")

    def test_principal_coins_follow_occurrences(self):
        # Low bit first: next, prev, r xor cc xor w, then ca xor cb for the
        # same-polarity pair (c1, c2) and the remaining occurrence c3.
        compiled = CompiledGadget(corpus()["single_variable"])
        assert compiled.node("X1").rows == (
            ("next1",), ("prev1",), ("r1", "c3", "w1"), ("c1", "c2")
        )

    def test_arities(self):
        compiled = CompiledGadget(corpus()["three_variable"])
        by_name = {m.name: m.arity for m in compiled.variables}
        assert by_name["C1"] == 2
        assert by_name["R1"] == 2
        assert by_name["X2"] == 16
        assert by_name["L1"] == 2

    def test_blocker_arities(self):
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["single_variable"], params)
        by_name = {m.name: m.arity for m in compiled.variables}
        assert by_name["A1"] == 2**5
        assert by_name["R1"] == 2**6

    def test_exact_node_entropies(self):
        compiled = CompiledGadget(corpus()["two_variable"])
        assert compiled.joint_entropy_bits(["C1"]) == pytest.approx(0.5, abs=1e-12)
        assert compiled.joint_entropy_bits(["R1"]) == pytest.approx(1.0, abs=1e-12)
        assert compiled.joint_entropy_bits(["X1"]) == pytest.approx(
            binary_entropy_bits(ALPHA) + 3.0, abs=1e-12
        )
        assert compiled.joint_entropy_bits(["L1"]) == pytest.approx(1.0, abs=1e-12)

    def test_key_decreases_match_closed_forms(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        assert compiled.entropy_decrease_bits("X1", ("R1",)) == pytest.approx(
            DELTA, abs=1e-12
        )
        assert compiled.entropy_decrease_bits("X1", ("C1", "C2")) == pytest.approx(
            1.0 - DELTA, abs=1e-12
        )
        assert compiled.entropy_decrease_bits("X1", ("R1", "C3")) == pytest.approx(
            0.5, abs=1e-12
        )
        assert compiled.entropy_decrease_bits("X1", ("C1", "C3")) == pytest.approx(
            0.5 - DELTA, abs=1e-12
        )

    def test_conditional_entropy_rejects_overlap(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        with pytest.raises(ValidationError):
            compiled.conditional_entropy_bits("X1", ("X1", "R1"))

    def test_unknown_node_rejected(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        with pytest.raises(ValidationError):
            compiled.joint_entropy_bits(["X9"])

    def test_entropy_query_coin_cap(self):
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["three_variable"], params)
        with pytest.raises(CapExceededError) as exc:
            compiled.joint_entropy_bits(["R1", "R2", "R3"])
        assert exc.value.constraint == "entropy_query_max_coins"
        assert ENTROPY_QUERY_MAX_COINS == 20

    def test_layer_totals_match_analytic(self):
        for name, formula in bundled_formulas():
            compiled = CompiledGadget(formula)
            observed = compiled.layer_entropy_bits()
            analytic = compiled.analytic_layer_entropy_bits()
            for got, want in zip(observed, analytic):
                assert got == pytest.approx(want, abs=1e-9), name
            m, n = formula.num_clauses, formula.num_vars
            assert analytic[0] == pytest.approx(m * 0.5, abs=1e-12)
            assert analytic[1] == pytest.approx(
                n * (binary_entropy_bits(ALPHA) + 4.0), abs=1e-12
            )
            assert analytic[2] == pytest.approx(n - 1.0, abs=1e-12)

    def test_sampling_is_deterministic_and_in_range(self):
        compiled = CompiledGadget(corpus()["two_variable"])
        a = compiled.sample_dataset(500, seed=3)
        b = compiled.sample_dataset(500, seed=3)
        np.testing.assert_array_equal(a.rows, b.rows)
        c = compiled.sample_dataset(500, seed=4)
        assert not np.array_equal(a.rows, c.rows)
        assert a.rows.shape == (500, len(compiled.names))
        assert tuple(m.name for m in a.variables) == compiled.names

    def test_sampling_rejects_empty(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        with pytest.raises(ValidationError):
            compiled.sample_dataset(0, seed=1)

    def test_sampled_marginals_approach_exact_entropies(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        dataset = compiled.sample_dataset(200_000, seed=11)
        dist = empirical_distribution(dataset)
        for idx, name in enumerate(compiled.names):
            got = entropy(dist, [idx])
            want = compiled.node(name).analytic_bits
            assert abs(got - want) < 0.02, name


class TestSatisfyingPlan:
    def test_default_assignment_hosts_majority_pair(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        plan = compiled.plan_for_assignment()
        assert plan.assignment == (1,)
        assert plan.satisfied_count == 2
        assert plan.allocation == {0: 1, 1: 1}
        index = compiled.index_of
        assert plan.structure.parents[index("X1")] == (index("C1"), index("C2"))

    def test_unsatisfying_polarity_hosts_satellite_and_minority(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        plan = compiled.plan_for_assignment((0,))
        assert plan.satisfied_count == 1
        assert plan.allocation == {2: 1}
        index = compiled.index_of
        assert plan.structure.parents[index("X1")] == tuple(
            sorted((index("R1"), index("C3")))
        )

    def test_plans_are_polytrees_with_indegree_two(self):
        for name, formula in bundled_formulas():
            compiled = CompiledGadget(formula)
            plan = compiled.plan_for_assignment()
            assert is_polytree(plan.structure), name
            assert max_indegree(plan.structure) <= 2, name
            assert len(plan.allocation) == plan.satisfied_count

    def test_every_allocated_clause_is_satisfied_by_its_host(self):
        for _, formula in bundled_formulas():
            compiled = CompiledGadget(formula)
            plan = compiled.plan_for_assignment()
            for j, i in plan.allocation.items():
                clause = formula.clauses[j]
                lit = i if plan.assignment[i - 1] == 1 else -i
                assert lit in clause

    @pytest.mark.parametrize("blockers", [False, True])
    def test_every_assignment_hosts_each_satisfied_clause_once(self, blockers):
        # Read from the structure: each satisfied clause node has exactly one
        # child, a principal whose literal satisfies it; the rest have none.
        params = GadgetParams(include_inedge_blockers=blockers)
        for name, formula in bundled_formulas():
            compiled = CompiledGadget(formula, params)
            index = compiled.index_of
            for bits in itertools.product((0, 1), repeat=formula.num_vars):
                plan = compiled.plan_for_assignment(bits)
                satisfied = 0
                for j, clause in enumerate(formula.clauses):
                    children = [
                        c
                        for c, ps in enumerate(plan.structure.parents)
                        if index(f"C{j + 1}") in ps
                    ]
                    true_literals = [
                        abs(lit) for lit in clause if (bits[abs(lit) - 1] == 1) == (lit > 0)
                    ]
                    if true_literals:
                        satisfied += 1
                        host = plan.allocation[j]
                        assert host in true_literals, (name, bits, j)
                        assert children == [index(f"X{host}")], (name, bits, j)
                    else:
                        assert j not in plan.allocation and children == [], (name, bits, j)
                assert plan.satisfied_count == satisfied == len(plan.allocation)

    def test_chain_nodes_adopt_adjacent_principals(self):
        compiled = CompiledGadget(corpus()["three_variable"])
        plan = compiled.plan_for_assignment()
        index = compiled.index_of
        for i in (1, 2):
            parents = plan.structure.parents[index(f"L{i}")]
            assert parents == tuple(sorted((index(f"X{i}"), index(f"X{i + 1}"))))

    def test_rejects_bad_assignment_length(self):
        compiled = CompiledGadget(corpus()["two_variable"])
        with pytest.raises(ValidationError):
            compiled.plan_for_assignment((1,))
        with pytest.raises(ValidationError):
            compiled.plan_for_assignment((1, 2))


class TestOptimumCensus:
    """What the true optimum of the gadget does, without blockers: it beats
    the satisfying plan on every census formula in reach, and it is not
    monotone in MAXSAT. These pin the gap; they do not say it is right."""

    def test_every_two_variable_three_clause_formula_beats_its_plan(self):
        formulas = restricted_formulas(2, 3)
        assert len(formulas) == 8
        rows = {formula.clauses: maxsat_plan_and_optimum(formula) for formula in formulas}
        for clauses, (maxsat, plan, optimum) in rows.items():
            assert maxsat == 3
            assert plan == pytest.approx(9.713537, abs=1e-6)
            # A repeated clause lets the optimum beat the plan by one bit.
            want = 8.713537 if len(set(clauses)) < 3 else 9.339142
            assert optimum == pytest.approx(want, abs=1e-6), clauses

    def test_the_optimum_is_not_monotone_in_maxsat(self):
        census = {formula.clauses for formula in restricted_formulas(2, 4)}
        three = CnfFormula(2, [[1], [2], [-1, -2], [-1, -2]])
        four = CnfFormula(2, [[1], [2], [1, -2], [-1, 2]])
        assert {three.clauses, four.clauses} <= census
        (sat3, plan3, opt3), (sat4, plan4, opt4) = map(maxsat_plan_and_optimum, (three, four))
        assert (sat3, sat4) == (3, 4)
        # The plans separate the formulas: more satisfied clauses, lower score.
        assert (plan3, plan4) == (pytest.approx(10.213537, abs=1e-6), pytest.approx(10.0, abs=1e-9))
        # The optima invert them.
        assert (opt3, opt4) == (pytest.approx(9.0, abs=1e-9), pytest.approx(9.427073, abs=1e-6))
        assert opt3 < opt4 < plan4 < plan3


class TestVerifyGadget:
    def test_corpus_audits_pass(self):
        for name, formula in bundled_formulas():
            compiled = CompiledGadget(formula)
            audit = verify_gadget(compiled)
            assert audit.ok, name
            assert audit.structure_is_polytree
            assert audit.structure_max_indegree <= 2
            assert abs(audit.observed_drop_bits - audit.expected_drop_bits) < 1e-9

    def test_expected_drop_closed_form(self):
        for _, formula in bundled_formulas():
            compiled = CompiledGadget(formula)
            audit = verify_gadget(compiled)
            want = audit.satisfied_count * (0.5 - DELTA) + formula.num_vars * DELTA
            assert audit.expected_drop_bits == pytest.approx(want, abs=1e-12)

    def test_audit_rows_cover_all_checks(self):
        compiled = CompiledGadget(corpus()["two_variable"])
        audit = verify_gadget(compiled)
        names = [row.name for row in audit.rows]
        assert "entropy[X1]" in names
        assert "decrease[X1|R1]" in names
        assert "residual[L1|X1,X2]" in names
        assert "layer_entropy[1]" in names
        assert "assignment_drop" in names
        # 8 node entropies + 2 vars * 7 decreases + 1 chain residual
        # + 3 layers + 1 drop
        assert len(names) == 8 + 14 + 1 + 3 + 1

    def test_blockers_audit_passes_with_residual_rows(self):
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["single_variable"], params)
        audit = verify_gadget(compiled)
        assert audit.ok
        rows = {row.name: row for row in audit.rows}
        assert rows["residual[R1|A1,B1]"].expected_bits == 1.0
        assert rows["residual[R1|A1,B1]"].passed

    def test_explicit_assignment_changes_drop(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        best = verify_gadget(compiled)
        worse = verify_gadget(compiled, (0,))
        assert worse.ok
        assert worse.satisfied_count == 1
        assert best.expected_drop_bits > worse.expected_drop_bits

    def test_impossible_tolerance_fails_loudly(self):
        compiled = CompiledGadget(corpus()["single_variable"])
        audit = verify_gadget(compiled, tolerance_bits=-1.0)
        assert not audit.ok
        assert not any(row.passed for row in audit.rows)


def _atom_probs(biases):
    m = len(biases)
    atoms = np.arange(1 << m)
    probs = np.ones(1 << m)
    for t, bias in enumerate(biases):
        bit = (atoms >> t) & 1
        probs *= np.where(bit == 1, bias, 1.0 - bias)
    return probs


def _parity(masked, m):
    out = np.zeros_like(masked)
    for t in range(m):
        out ^= (masked >> t) & 1
    return out


def _entropy_of_groups(keys, probs):
    cells = np.bincount(keys, weights=probs)
    cells = cells[cells > 1e-15]
    return float(-(cells * np.log2(cells)).sum())


def _wiring_decreases(biases, s1, s2, prev_idx, next_idx, given_sets):
    """Entropy of X = (xor(s1), xor(s2), prev, next) and its decreases.

    ``given_sets`` are tuples of coin indices; the return value pairs the
    total entropy with one decrease per given set, all computed by exact
    enumeration over the coin atoms.
    """
    m = len(biases)
    atoms = np.arange(1 << m)
    probs = _atom_probs(biases)
    value = (
        (_parity(atoms & s1, m) << 3)
        | (_parity(atoms & s2, m) << 2)
        | (((atoms >> prev_idx) & 1) << 1)
        | ((atoms >> next_idx) & 1)
    )
    total = _entropy_of_groups(value, probs)
    decreases = []
    for given in given_sets:
        proj = np.zeros_like(atoms)
        for j, t in enumerate(given):
            proj |= ((atoms >> t) & 1) << j
        joint = _entropy_of_groups((value << len(given)) | proj, probs)
        base = _entropy_of_groups(proj, probs)
        decreases.append(total - (joint - base))
    return total, decreases


class TestPrivateCoinJustification:
    """Why each principal carries a seventh, private coin.

    The principal must be a 16-state node exposing its two chain bits
    verbatim (the chain links need zero residual given their endpoints),
    leaving two parity components free. The audit demands a specific
    conditional-decrease table; these tests show by exhaustive enumeration
    that no pair of parities over only the six shared coins (three clause
    coins, the satellite coin, the two chain coins) achieves that table,
    while adding one private coin does. Intuition: without a private coin
    the heaviest joint atom keeps probability (1-p)^3 / 8 ~ 0.7049 / 8,
    too concentrated for the principal's target entropy of H(alpha) + 3,
    which needs a maximum atom no heavier than (1-alpha)^2 / 8 ~ 0.6467 / 8.
    """

    TOL = 1e-9

    def _requirements(self, a, b, c, r):
        given_sets = [
            (r,), (r, a), (r, b), (r, c), (a, b), (a, c), (b, c)
        ]
        expected = [
            DELTA, 0.5, 0.5, 0.5, 1.0 - DELTA, 0.5 - DELTA, 0.5 - DELTA
        ]
        return given_sets, expected

    def test_shipped_seven_coin_wiring_meets_the_table(self):
        # Coins: ca, cb, cc, r, w, prev, next.
        biases = [P, P, P, 0.5, P, 0.5, 0.5]
        s1 = 0b0000011
        s2 = 0b0011100
        given_sets, expected = self._requirements(0, 1, 2, 3)
        total, decreases = _wiring_decreases(biases, s1, s2, 5, 6, given_sets)
        assert total == pytest.approx(binary_entropy_bits(ALPHA) + 3.0, abs=self.TOL)
        for got, want in zip(decreases, expected):
            assert got == pytest.approx(want, abs=self.TOL)

    def test_no_six_coin_wiring_meets_the_table(self):
        # Coins: ca, cb, cc, r, prev, next. Every wiring is a pair of
        # parity masks; roles of the three clause coins are also swept,
        # although the coins are exchangeable in distribution.
        biases = [P, P, P, 0.5, 0.5, 0.5]
        target_total = binary_entropy_bits(ALPHA) + 3.0
        witnesses = []
        for minority in (0, 1, 2):
            a, b = sorted({0, 1, 2} - {minority})
            given_sets, expected = self._requirements(a, b, minority, 3)
            for s1 in range(64):
                for s2 in range(64):
                    total, decreases = _wiring_decreases(
                        biases, s1, s2, 4, 5, given_sets
                    )
                    if abs(total - target_total) > self.TOL:
                        continue
                    if all(
                        abs(got - want) <= self.TOL
                        for got, want in zip(decreases, expected)
                    ):
                        witnesses.append((minority, s1, s2))
        assert witnesses == []

    def test_atom_weight_obstruction(self):
        # The quantitative reason the previous sweep must come up empty.
        assert (1 - P) ** 3 > (1 - ALPHA) ** 2 + 1e-3


class TestBlockerInformationBudget:
    def test_expanded_satellite_entropies(self):
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["single_variable"], params)
        k = params.blocker_copies
        q = params.blocker_bias
        assert compiled.joint_entropy_bits(["A1"]) == pytest.approx(
            k * binary_entropy_bits(q), abs=1e-12
        )
        assert compiled.joint_entropy_bits(["R1"]) == pytest.approx(
            1.0 + k * binary_entropy_bits(2 * q * (1 - q)), abs=1e-12
        )
        assert compiled.conditional_entropy_bits("R1", ("A1", "B1")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_blocker_parent_never_pays_for_satellite(self):
        # Adopting one blocker alone must cost more than it saves: the
        # decrease it buys stays below the one extra bit the satellite
        # would need to lose to be worth an in-edge.
        params = GadgetParams(include_inedge_blockers=True)
        compiled = CompiledGadget(corpus()["single_variable"], params)
        k = params.blocker_copies
        q = params.blocker_bias
        drop = compiled.entropy_decrease_bits("R1", ("A1",))
        margin = k * (
            binary_entropy_bits(2 * q * (1 - q)) - binary_entropy_bits(q)
        )
        assert drop == pytest.approx(
            k * binary_entropy_bits(2 * q * (1 - q)) - k * binary_entropy_bits(q),
            abs=1e-12,
        )
        assert margin > 1.0
