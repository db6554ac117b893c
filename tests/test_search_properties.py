"""Hypothesis properties of mutual information and of the three learners.

Examples are drawn with ``derandomize=True``, so every run checks the same
random and tie-heavy joints.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_force_branching
from polytreelab.branching import learn_optimal_branching
from polytreelab.distribution import Distribution, VariableMeta, mutual_information
from polytreelab.generators import random_joint_distribution
from polytreelab.search import exact_optimal_polytree, local_search_polytree
from polytreelab.structure import is_branching, score


def joints(min_n, max_n):
    return st.builds(
        random_joint_distribution,
        st.lists(st.integers(2, 3), min_size=min_n, max_size=max_n),
        seed=st.integers(0, 2**32 - 1),
    )


def _joint(arities, weights):
    table = np.array(weights, dtype=float).reshape(arities)
    return Distribution(
        [VariableMeta(f"X{i}", a) for i, a in enumerate(arities)], table / table.sum()
    )


# Small integer weights give many zero and equal cells, so independent,
# copied and tied variables are common.
tie_heavy_joints = (
    st.lists(st.integers(2, 3), min_size=2, max_size=6)
    .filter(lambda arities: prod(arities) <= 96)
    .flatmap(
        lambda arities: st.lists(
            st.integers(0, 3), min_size=prod(arities), max_size=prod(arities)
        )
        .filter(any)
        .map(lambda weights: _joint(arities, weights))
    )
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(joints(2, 6), tie_heavy_joints))
def test_learned_branching_equals_brute_force(dist):
    learned = learn_optimal_branching(dist)
    assert is_branching(learned)
    # The learner drops edges of at most OMEGA = 1e-12 bits.
    assert score(dist, learned).total_bits == pytest.approx(
        score(dist, brute_force_branching(dist)).total_bits, abs=1e-9
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(joints(2, 6), st.data())
def test_mutual_information_is_symmetric_and_non_negative(dist, data):
    a = data.draw(st.integers(0, dist.n - 1))
    b = data.draw(st.integers(0, dist.n - 1).filter(lambda v: v != a))
    mi = mutual_information(dist, a, b)
    assert mi == mutual_information(dist, b, a)
    assert mi >= 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(joints(2, 5), st.sampled_from([1, 2]))
def test_exact_at_most_local_at_most_branching(dist, k):
    exact = exact_optimal_polytree(dist, k)
    local = local_search_polytree(dist, k)
    assert exact.best_score_bits <= local.best_score_bits <= local.branching_score_bits
    assert exact.branching_score_bits == local.branching_score_bits


@settings(max_examples=8, deadline=None, derandomize=True)
@given(joints(2, 6), st.sampled_from([None, 1, 2]))
def test_exact_search_is_the_same_on_rerun(dist, k):
    assert exact_optimal_polytree(dist, k) == exact_optimal_polytree(dist, k)
