"""End-to-end acceptance gate: one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; under plain ``pytest`` they appear for failing criteria.
"""

import math
import random
import time

import pytest

from brute_force import brute_force_branching
from polytreelab.bounds import entropy_range, verify_bounds
from polytreelab.branching import learn_optimal_branching
from polytreelab.cnf import best_assignment, bundled_formulas
from polytreelab.distribution import binary_entropy_bits, entropy
from polytreelab.gadget import DEFAULT_CLAUSE_BIAS, compile_cnf, verify_gadget
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
    xor_tree_family,
)
from polytreelab.search import exact_optimal_polytree, local_search_polytree
from polytreelab.structure import Structure, score

TOL_EXACT = 1e-9
TOL_BOUNDS = 1e-6
TOL_BIAS = 1e-10


def _report(criterion: int, passed: bool, detail: str, start: float) -> None:
    elapsed = time.perf_counter() - start
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail} ({elapsed:.1f}s)")
    assert passed, f"criterion {criterion} failed: {detail}"


def _mixed_arities(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((2, 3)) for _ in range(n)]


@pytest.fixture(scope="session")
def bound_suite():
    """200 seeded instances (n in 3..6), each with its oracle-audited bounds.

    Half are unstructured random joints, half are sampled from random
    2-polytrees; every instance keeps its smallest single-node entropy
    above 1e-9 so the entropy-ratio factor is defined.
    """
    start = time.perf_counter()
    rng = random.Random(20260818)
    audits = []
    seed = 0
    while len(audits) < 200:
        seed += 1
        n = 3 + (seed % 4)
        arities = _mixed_arities(rng, n)
        if seed % 2:
            dist = random_joint_distribution(arities, seed=seed)
        else:
            dist, _ = random_polytree_instance(n, 2, arities, seed=seed)
        _, l_bits = entropy_range(dist)
        if l_bits <= 1e-9:
            continue
        branching = learn_optimal_branching(dist)
        search = exact_optimal_polytree(dist, None)
        audits.append(
            verify_bounds(dist, search.best, branching, tolerance_bits=TOL_BOUNDS)
        )
    return audits, time.perf_counter() - start


def _bound_rows(audits, name):
    return [
        next(b for b in audit.bounds if b.name == name) for audit in audits
    ]


class TestAcceptance:
    def test_criterion_1_branching_oracle_equivalence(self):
        start = time.perf_counter()
        rng = random.Random(1)
        checked = 0
        worst = 0.0
        for seed in range(100):
            n = 2 + seed % 5
            dist = random_joint_distribution(_mixed_arities(rng, n), seed=seed)
            fast = score(dist, learn_optimal_branching(dist)).total_bits
            slow = score(dist, brute_force_branching(dist)).total_bits
            worst = max(worst, abs(fast - slow))
            checked += 1
        passed = checked >= 100 and worst <= TOL_EXACT
        _report(
            1,
            passed,
            f"{checked} instances, max |fast - brute| = {worst:.2e}",
            start,
        )

    def test_criterion_2_parity_ladder(self):
        start = time.perf_counter()
        dist, _ = parity_fixture("parity3")
        empty = score(dist, Structure.empty(4)).total_bits
        three_parent = score(
            dist, Structure(4, [(1, 2, 3), (), (), ()])
        ).total_bits
        two_parent = exact_optimal_polytree(dist, 2).best_score_bits
        branching = score(dist, learn_optimal_branching(dist)).total_bits
        unbounded = exact_optimal_polytree(dist, 3)
        values = {
            "empty": (empty, 4.0),
            "three-parent": (three_parent, 3.0),
            "k=2 optimum": (two_parent, 4.0),
            "branching": (branching, 4.0),
            "k=3 ratio": (unbounded.ratio, 4.0 / 3.0),
        }
        bad = {
            label: got
            for label, (got, want) in values.items()
            if abs(got - want) > TOL_EXACT
        }
        _report(
            2,
            not bad,
            "ladder 4.0 / 3.0 / 4.0 / 4.0, ratio 4/3"
            + (f"; mismatches: {bad}" if bad else ""),
            start,
        )

    def test_criterion_3_entropy_ratio_factor(self, bound_suite):
        audits, build_seconds = bound_suite
        start = time.perf_counter() - build_seconds
        rows = _bound_rows(audits, "entropy_ratio_bound")
        holds = [
            row.applicable and row.lhs_bits <= row.rhs_bits + TOL_BOUNDS
            for row in rows
        ]
        passed = len(holds) >= 200 and all(holds)
        _report(
            3,
            passed,
            f"branching <= (1 + U/L) * optimal on {sum(holds)}/{len(holds)} instances",
            start,
        )

    def test_criterion_4_log_count_factors(self, bound_suite):
        audits, _ = bound_suite
        start = time.perf_counter()
        plain = _bound_rows(audits, "log_node_count_bound")
        effective = _bound_rows(audits, "log_effective_count_bound")
        ok_plain = [r.lhs_bits <= r.rhs_bits + TOL_BOUNDS for r in plain]
        ok_eff = [
            r.applicable and r.lhs_bits <= r.rhs_bits + TOL_BOUNDS
            for r in effective
        ]
        passed = all(ok_plain) and all(ok_eff) and len(ok_plain) >= 200
        _report(
            4,
            passed,
            "branching <= (1 + log2(n)/2) * optimal and the effective-count "
            f"variant on {len(ok_plain)} instances",
            start,
        )

    def test_criterion_5_spread_factor_and_subtree_charges(self, bound_suite):
        audits, _ = bound_suite
        start = time.perf_counter()
        spread = _bound_rows(audits, "entropy_spread_bound")
        ok_spread = [
            r.applicable and r.lhs_bits <= r.rhs_bits + TOL_BOUNDS for r in spread
        ]
        subtree_rows = [row for audit in audits for row in audit.subtree_rows]
        kinds = {row.bound for row in subtree_rows}
        ok_rows = [row.lhs_bits <= row.rhs_bits + TOL_BOUNDS for row in subtree_rows]
        skipped = sum(audit.skipped_multi_sink_components for audit in audits)
        passed = (
            all(ok_spread)
            and all(ok_rows)
            and kinds == {"subtree_charge_bound", "capped_subtree_charge_bound"}
        )
        _report(
            5,
            passed,
            f"spread factor on {len(ok_spread)} instances; "
            f"{len(subtree_rows)} subtree charge rows "
            f"({skipped} multi-sink components skipped)",
            start,
        )

    def test_criterion_6_growth_curve(self):
        start = time.perf_counter()
        eps = 0.3
        ratios = []
        for depth in (1, 2, 3):
            dist, generating = xor_tree_family(depth, eps)
            branching = score(dist, learn_optimal_branching(dist)).total_bits
            generating_bits = score(dist, generating).total_bits
            ratios.append(branching / generating_bits)
        passed = ratios[0] < ratios[1] < ratios[2] and (
            ratios[2] - ratios[0] >= 0.2
        )
        _report(
            6,
            passed,
            "ratios at depths 1..3: "
            + ", ".join(f"{r:.6f}" for r in ratios)
            + f"; spread {ratios[2] - ratios[0]:.3f} >= 0.2",
            start,
        )

    def test_criterion_7_reduction_fidelity(self):
        start = time.perf_counter()
        corpus = bundled_formulas()
        failures = []
        for name, formula in corpus:
            compiled, _ = compile_cnf(formula)
            m, n = formula.num_clauses, formula.num_vars
            p = compiled.params.clause_bias
            alpha = compiled.params.xor_bias
            layers = compiled.layer_entropy_bits()
            targets = (
                m * binary_entropy_bits(p),
                n * (binary_entropy_bits(alpha) + 4.0),
                n - 1.0,
            )
            if any(abs(got - want) > TOL_EXACT for got, want in zip(layers, targets)):
                failures.append(f"{name}: layers {layers} != {targets}")
                continue
            audit = verify_gadget(compiled, tolerance_bits=TOL_EXACT)
            if not audit.ok:
                bad = [row.name for row in audit.rows if not row.passed]
                failures.append(f"{name}: {bad[:4]}")
                continue
            _, m_prime = best_assignment(formula)
            delta = compiled.params.delta_bits
            want_drop = m_prime * (0.5 - delta) + n * delta
            if abs(audit.observed_drop_bits - want_drop) > TOL_EXACT:
                failures.append(
                    f"{name}: drop {audit.observed_drop_bits} != {want_drop}"
                )
        passed = len(corpus) >= 5 and not failures
        _report(
            7,
            passed,
            f"{len(corpus)} formulas: layer entropies, decrease tables, "
            "and assignment drops all within 1e-9"
            + (f"; failures: {failures}" if failures else ""),
            start,
        )

    def test_criterion_8_clause_bias_solve(self):
        start = time.perf_counter()
        p = DEFAULT_CLAUSE_BIAS
        residual = abs(binary_entropy_bits(p) - 0.5)
        passed = residual < TOL_BIAS and 0.10 < p < 0.12
        _report(
            8,
            passed,
            f"p = {p:.12f}, |H(p) - 1/2| = {residual:.1e}, window (0.10, 0.12)",
            start,
        )

    def test_criterion_9_heuristic_sanity(self):
        start = time.perf_counter()
        rng = random.Random(9)
        matches = 0
        total = 0
        never_worse = True
        for seed in range(100):
            n = 3 + seed % 3
            arities = _mixed_arities(rng, n)
            if seed % 2:
                dist = random_joint_distribution(arities, seed=1000 + seed)
            else:
                dist, _ = random_polytree_instance(n, 2, arities, seed=1000 + seed)
            seed_structure = learn_optimal_branching(dist)
            seed_bits = score(dist, seed_structure).total_bits
            local = local_search_polytree(dist, 2, seed_structure)
            exact = exact_optimal_polytree(dist, 2)
            total += 1
            if local.best_score_bits > seed_bits + TOL_EXACT:
                never_worse = False
            if abs(local.best_score_bits - exact.best_score_bits) <= TOL_EXACT:
                matches += 1
        passed = never_worse and total >= 100 and matches >= 60
        _report(
            9,
            passed,
            f"never worse than seed: {never_worse}; "
            f"matched the exact oracle on {matches}/{total} instances (floor 60)",
            start,
        )
