"""The benchmark's independent scorer agrees with polytreelab's own."""

import numpy as np
import pytest

import oracle
import workloads
from polytreelab import (
    Dataset,
    Structure,
    VariableMeta,
    empirical_distribution,
    learn_optimal_branching,
    parity_fixture,
    random_polytree_instance,
    score,
)


def parent_lists(structure):
    return [sorted(ps) for ps in structure.parents]


@pytest.mark.parametrize("case", ["parity3", "random"])
def test_joint_scorer_matches_score(case):
    if case == "parity3":
        dist, generating = parity_fixture("parity3")
    else:
        dist, generating = random_polytree_instance(6, 2, 2, seed=3)
    h = oracle.joint_entropy_fn(dist.table)
    for structure in (generating, learn_optimal_branching(dist)):
        expected = score(dist, structure).total_bits
        assert oracle.structure_bits(h, parent_lists(structure)) == pytest.approx(expected, abs=1e-12)
    branching = score(dist, learn_optimal_branching(dist)).total_bits
    assert oracle.branching_bits(h, dist.n) == pytest.approx(branching, abs=1e-12)


def test_rows_scorer_matches_empirical_score():
    rng = np.random.Generator(np.random.PCG64(5))
    parents = workloads.random_polytree(rng, 8, 2)
    rows = workloads.sample_rows(rng, parents, workloads.random_cpts(rng, parents), 5000)
    metas = [VariableMeta(f"X{i + 1}", 2) for i in range(8)]
    dist = empirical_distribution(Dataset(metas, rows))
    h = oracle.rows_entropy_fn(rows)
    assert oracle.structure_bits(h, parents) == pytest.approx(
        score(dist, Structure(8, parents)).total_bits, abs=1e-12
    )
    assert oracle.branching_bits(h, 8) == pytest.approx(
        score(dist, learn_optimal_branching(dist)).total_bits, abs=1e-12
    )


def test_generated_polytrees_respect_the_indegree_cap():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        parents = workloads.random_polytree(rng, 7, 2)
        assert oracle.is_polytree(parents)
        assert oracle.max_indegree(parents) <= 2
        assert sum(map(len, parents)) == 6


def test_union_find_rejects_cycles_and_double_edges():
    assert oracle.is_polytree([[], [0], [1]])
    assert not oracle.is_polytree([[1], [0]])
    assert not oracle.is_polytree([[], [0], [0, 1]])


def test_maxsat_brute_force():
    num_vars, clauses = oracle.parse_dimacs("c x\np cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n")
    assert (num_vars, clauses) == (2, [(1, 2), (1, -2), (-1, 2)])
    assert oracle.maxsat(num_vars, clauses) == 3
    assert oracle.maxsat(1, [(1,), (-1,)]) == 1
