"""Per-distribution entropy memo: bit-identical values, fewer reductions."""

import itertools

import numpy as np

from polytreelab import distribution
from polytreelab.branching import learn_optimal_branching
from polytreelab.distribution import (
    Dataset,
    Distribution,
    VariableMeta,
    empirical_distribution,
    entropy,
)


def _uncached(dist: Distribution, axes) -> float:
    drop = tuple(i for i in range(dist.n) if i not in axes)
    table = dist.table.sum(axis=drop) if drop else dist.table
    return distribution._entropy_of_flat(np.asarray(table))


def test_memoised_entropy_is_bit_identical_in_any_axis_order():
    rng = np.random.default_rng(23)
    arities = (2, 3, 2, 2, 3, 2)
    table = rng.exponential(size=arities)
    table /= table.sum()
    dist = Distribution([VariableMeta(f"X{i}", a) for i, a in enumerate(arities)], table)
    for size in range(dist.n + 1):
        for subset in itertools.combinations(range(dist.n), size):
            expected = _uncached(dist, subset)
            shuffled = tuple(rng.permutation(subset).tolist())
            for order in (shuffled, subset, subset[::-1]):
                assert entropy(dist, order) == expected
    assert entropy(dist) == _uncached(dist, tuple(range(dist.n)))


def test_branching_reduces_each_distinct_set_once(monkeypatch):
    rng = np.random.default_rng(5)
    n = 18
    rows = np.empty((4000, n), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, size=4000)
    for j in range(1, n):
        flip = rng.random(4000) < 0.2
        rows[:, j] = rows[:, rng.integers(0, j)] ^ flip
    dist = empirical_distribution(Dataset([VariableMeta(f"X{i}", 2) for i in range(n)], rows))

    reductions = []
    original = distribution._entropy_of_flat

    def counted(probabilities):
        reductions.append(probabilities.size)
        return original(probabilities)

    monkeypatch.setattr(distribution, "_entropy_of_flat", counted)
    learn_optimal_branching(dist)
    # n single-variable marginals plus n(n-1)/2 pairs: 18 + 153.
    assert len(reductions) <= n + n * (n - 1) // 2
    learn_optimal_branching(dist)
    assert len(reductions) <= n + n * (n - 1) // 2
