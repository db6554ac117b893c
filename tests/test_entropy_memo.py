"""Per-distribution entropy memo and dense marginals: values bit for bit
equal to numpy's ``table.sum(axis=dropped)``, fewer reductions. Hypothesis
draws the sparse tables with ``derandomize=True``, so every run checks the
same ones."""

import itertools
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polytreelab import distribution
from polytreelab.branching import learn_optimal_branching, mutual_information_edges
from polytreelab.distribution import (
    Dataset,
    DenseMarginals,
    Distribution,
    VariableMeta,
    empirical_distribution,
    entropy,
)
from polytreelab.search import local_search_polytree


def _reference_marginal(dist: Distribution, axes) -> np.ndarray:
    drop = tuple(i for i in range(dist.n) if i not in axes)
    return np.asarray(dist.table.sum(axis=drop) if drop else dist.table).reshape(-1)


def _uncached(dist: Distribution, axes) -> float:
    return distribution._entropy_of_flat(_reference_marginal(dist, axes))


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


def _sampled_joint(n: int, rows: int, seed: int) -> Distribution:
    """Empirical joint of ``rows`` samples of a random tree of noisy binary
    copies: mostly zero cells, as on learn-from-data inputs."""
    rng = np.random.default_rng(seed)
    data = np.empty((rows, n), dtype=np.int64)
    data[:, 0] = rng.integers(0, 2, size=rows)
    for j in range(1, n):
        flip = rng.random(rows) < 0.2
        data[:, j] = data[:, rng.integers(0, j)] ^ flip
    return empirical_distribution(Dataset([VariableMeta(f"X{i}", 2) for i in range(n)], data))


def _assert_marginal_bits(dist: Distribution, mask: int) -> None:
    axes = tuple(i for i in range(dist.n) if mask >> i & 1)
    expected = _reference_marginal(dist, axes)
    assert dist.marginals.flat(mask).tobytes() == expected.tobytes(), axes
    if mask:  # the oracle defines h(0) as 0.0
        reference = distribution._round_off(distribution._entropy_of_flat(expected), "entropy")
        assert dist.oracle.h(mask).hex() == reference.hex(), axes


@st.composite
def sparse_tables(draw, max_axes=10, max_states=2048):
    """Arities 1-5 on up to ``max_axes`` axes, size-1 axes anywhere, and at
    least half of the cells zero."""
    arities = []
    for _ in range(draw(st.integers(1, max_axes))):
        arities.append(draw(st.integers(1, min(5, max_states // math.prod(arities)))))
    arities = draw(st.permutations(arities))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.exponential(size=arities)
    zeros = math.ceil(table.size * draw(st.sampled_from([0.5, 0.75, 0.9])))
    table.flat[rng.permutation(table.size)[:zeros]] = 0.0
    if table.sum() == 0.0:
        table.flat[0] = 1.0
    return table / table.sum()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_tables())
def test_marginals_match_numpy_sum_bit_for_bit_on_every_mask(table):
    dist = Distribution([VariableMeta(f"X{i}", a) for i, a in enumerate(table.shape)], table)
    for mask in range(1 << dist.n):
        _assert_marginal_bits(dist, mask)


def test_marginals_match_numpy_sum_on_an_18_variable_empirical_joint():
    dist = _sampled_joint(18, 20000, seed=14)
    for size in range(4):
        for subset in itertools.combinations(range(dist.n), size):
            _assert_marginal_bits(dist, distribution._mask(subset))


def test_local_search_computes_each_trailing_run_once(monkeypatch):
    dist = _sampled_joint(18, 20000, seed=14)
    starts = []
    original = DenseMarginals._run_sums

    def counted(self, start):
        starts.append(start)
        return original(self, start)

    monkeypatch.setattr(DenseMarginals, "_run_sums", counted)
    local_search_polytree(dist, 2)
    assert len(starts) == len(set(starts)) <= dist.n


def test_cached_run_sums_stay_within_a_few_tables_on_a_dense_joint():
    rng = np.random.default_rng(16)
    table = rng.exponential(size=(2,) * 16)
    dist = Distribution([VariableMeta(f"X{i}", 2) for i in range(16)], table / table.sum())
    tracemalloc.start()
    try:
        mutual_information_edges(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (position, value) pair per non-zero run sum over at most n runs
    # holds up to 4x the table's bytes on a dense joint; the widest query
    # adds its cell keys. Measured: 6.1x.
    assert peak <= 7 * dist.table.nbytes


def test_branching_reduces_each_distinct_set_once(monkeypatch):
    n = 18
    dist = _sampled_joint(n, 4000, seed=5)

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
