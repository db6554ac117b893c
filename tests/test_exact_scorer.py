"""The pruned level-vectorised exact search against the scalar Gray-code
walk, kept here as the reference, plus its closed-form orientation count,
oracle queries and peak memory. Hypothesis draws the random and tie-heavy
joints with ``derandomize=True``, so every run checks the same ones."""

import tracemalloc
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytreelab.distribution import Distribution, EntropyOracle, VariableMeta
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
    xor_tree_family,
)
from polytreelab.search import (
    _all_pairs,
    _forest_levels,
    _orientation_template,
    exact_optimal_polytree,
    polytree_count,
)
from polytreelab.structure import Structure, UnionFind

KS = (None, 0, 1, 2, 3)


class _Best:
    """Running minimum of (score, parent-set encoding); the encoding lists
    each node's parent indices in increasing order."""

    __slots__ = ("score", "key", "parents")

    def __init__(self) -> None:
        self.score = float("inf")
        self.key: tuple[tuple[int, ...], ...] | None = None
        self.parents: tuple[int, ...] | None = None

    def offer(self, total: float, parent_masks: list[int], n: int) -> None:
        if total > self.score:
            return
        key = tuple(
            tuple(i for i in range(n) if parent_masks[v] >> i & 1) for v in range(n)
        )
        if total < self.score or (self.key is not None and key < self.key):
            self.score = total
            self.key = key
            self.parents = tuple(parent_masks)


def _node_ordered_sum(terms: list[float]) -> float:
    # Python 3.11's sum() of floats: 0.0 plus each term, left to right.
    # From 3.12 on sum() compensates round-off, so spell it out.
    total = 0.0
    for t in terms:
        total += t
    return total


def _scan_orientations(
    edges: list[tuple[int, int]],
    oracle: EntropyOracle,
    k: int,
    n: int,
    best: _Best,
) -> int:
    """Score every orientation of a fixed forest via a Gray-code walk.

    Bit j clear means edge j runs a -> b (parent a); set means b -> a. One
    edge flips between consecutive visits, so parent masks, indegrees, and
    per-node score terms are patched in O(1) per step. Returns the number of
    orientations that satisfied the indegree bound and were scored.
    """
    e = len(edges)
    parent_mask = [0] * n
    indegree = [0] * n
    for a, b in edges:
        parent_mask[b] |= 1 << a
        indegree[b] += 1
    terms = [oracle.conditional(v, parent_mask[v]) for v in range(n)]
    violations = sum(1 for v in range(n) if indegree[v] > k)
    scored = 0
    if violations == 0:
        scored += 1
        best.offer(_node_ordered_sum(terms), parent_mask, n)
    direction = 0
    for step in range(1, 1 << e):
        j = (step & -step).bit_length() - 1
        a, b = edges[j]
        if direction >> j & 1:
            # b -> a reverts to a -> b
            gains, loses = b, a
        else:
            gains, loses = a, b
        direction ^= 1 << j
        parent_mask[loses] &= ~(1 << gains)
        d = indegree[loses]
        indegree[loses] = d - 1
        violations += (1 if d - 1 > k else 0) - (1 if d > k else 0)
        parent_mask[gains] |= 1 << loses
        d = indegree[gains]
        indegree[gains] = d + 1
        violations += (1 if d + 1 > k else 0) - (1 if d > k else 0)
        terms[loses] = oracle.conditional(loses, parent_mask[loses])
        terms[gains] = oracle.conditional(gains, parent_mask[gains])
        if violations == 0:
            scored += 1
            best.offer(_node_ordered_sum(terms), parent_mask, n)
    return scored


def reference_exact(dist: Distribution, k: int | None) -> tuple[Structure, float, int]:
    """Best structure, its score and the orientations scored, by the scalar walk
    over every acyclic edge subset."""
    n = dist.n
    k_eff = n - 1 if k is None else min(k, n - 1)
    best = _Best()
    scored = 0
    pairs = _all_pairs(n)
    for e in range(n):
        for edges in combinations(pairs, e):
            uf = UnionFind(n)
            if all(uf.union(a, b) for a, b in edges):
                scored += _scan_orientations(list(edges), dist.oracle, k_eff, n, best)
    parents = [[i for i in range(n) if best.parents[v] >> i & 1] for v in range(n)]
    return Structure(n, parents), best.score, scored


def _binary(table: np.ndarray) -> Distribution:
    return Distribution([VariableMeta(f"X{i}", 2) for i in range(table.ndim)], table)


def _copies(n: int) -> Distribution:
    """X_i = X_0 for every i: every spanning tree with one root ties."""
    table = np.zeros((2,) * n)
    table[(0,) * n] = table[(1,) * n] = 0.5
    return _binary(table)


def _uniform(n: int) -> Distribution:
    """Every orientation of every forest ties."""
    return _binary(np.full((2,) * n, 0.5**n))


def _coin_and_parity() -> Distribution:
    """X0 a coin with P(1) = 0.07, X1 and X2 fair, X3 = X1 xor X2.

    The winner, X0, X1, X2 -> X3, has three edges and ties the two-edge
    X1, X2 -> X3 bit for bit, and its forest's bound equals its total when
    added in node order but not in reverse: a prune that drops forests
    bounded at the best so far, or that adds the bound in another order
    than the totals, loses it at k = 3 and unbounded.
    """
    heads = 0.07
    table = np.zeros((2,) * 4)
    for x0, x1, x2 in product((0, 1), repeat=3):
        table[x0, x1, x2, x1 ^ x2] = (heads if x0 else 1 - heads) * 0.25
    return _binary(table)


JOINTS = {
    "parity2": lambda: parity_fixture("parity2")[0],
    "parity3": lambda: parity_fixture("parity3")[0],
    "xor-tree-d1": lambda: xor_tree_family(1, 0.1)[0],
    "copies3": lambda: _copies(3),
    "copies5": lambda: _copies(5),
    "copies6": lambda: _copies(6),
    "coin-and-parity": _coin_and_parity,
    "uniform4": lambda: _uniform(4),
    "uniform5": lambda: _uniform(5),
    "random5": lambda: random_joint_distribution([2, 3, 2, 4, 2], seed=5),
    "random6": lambda: random_joint_distribution([2, 2, 3, 2, 2, 2], seed=6),
    "polytree6": lambda: random_polytree_instance(6, 2, 2, seed=2)[0],
}


@pytest.mark.parametrize("name", sorted(JOINTS))
def test_batched_scorer_equals_the_scalar_walk(name):
    dist = JOINTS[name]()
    for k in KS:
        report = exact_optimal_polytree(dist, k)
        best, best_bits, scored = reference_exact(dist, k)
        assert report.best == best, k
        assert report.best_score_bits == best_bits, k
        assert type(report.best_score_bits) is float
        assert report.instances_enumerated == scored, k


def test_rerun_is_identical_under_many_ties():
    dist = _copies(6)
    for k in (None, 2):
        assert exact_optimal_polytree(dist, k) == exact_optimal_polytree(dist, k)


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
        .map(lambda weights: _weighted(arities, weights))
    )
)
random_joints = st.builds(
    random_joint_distribution,
    st.lists(st.integers(2, 3), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)


def _weighted(arities, weights) -> Distribution:
    table = np.array(weights, dtype=float).reshape(arities)
    return Distribution(
        [VariableMeta(f"X{i}", a) for i, a in enumerate(arities)], table / table.sum()
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(random_joints, tie_heavy_joints), st.sampled_from(KS))
def test_pruned_search_equals_the_scalar_walk(dist, k):
    report = exact_optimal_polytree(dist, k)
    best, best_bits, scored = reference_exact(dist, k)
    assert report.best == best
    assert report.best_score_bits == best_bits
    assert report.instances_enumerated == scored


def _orientations_by_max_indegree(n: int) -> np.ndarray:
    """How many orientations of all forests on ``n`` nodes have each largest
    in-degree, counted from the enumerator's forests and templates."""
    # Row 2j of a template sets edge j to run a -> b, so b gains a parent;
    # row 2j + 1 runs it b -> a.
    gainers = np.array(_all_pairs(n), dtype=np.intp).reshape(-1, 2)[:, ::-1]
    counts = np.zeros(n, dtype=np.int64)
    for e, level in _forest_levels(n):
        template = _orientation_template(e).astype(np.int64)
        for forests in level:
            ends = gainers[forests.astype(np.intp)].reshape(len(forests), 2 * e)
            indegree = np.eye(n, dtype=np.int64)[ends].transpose(0, 2, 1) @ template
            counts += np.bincount(indegree.max(axis=1, initial=0).ravel(), minlength=n)
    return counts


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_count_equals_the_enumeration(n):
    """Every bound k < n, the last being the unbounded search's."""
    at_most = np.cumsum(_orientations_by_max_indegree(n))
    for k in range(n):
        assert polytree_count(n, k) == at_most[k], k


@pytest.mark.parametrize(
    "n, k, count", [(7, 2, 1_375_564), (7, 6, 1_598_955), (8, 2, 40_049_361)]
)
def test_closed_form_count_of_larger_spaces(n, k, count):
    assert polytree_count(n, k) == count


@pytest.mark.parametrize("k, count", [(2, 1_375_564), (None, 1_598_955)])
def test_orientations_scored_at_seven_nodes(k, count):
    """The reported count is the size of the search space, whatever the
    bound prunes."""
    dist = random_joint_distribution([2] * 7, seed=7)
    assert exact_optimal_polytree(dist, k).instances_enumerated == count


@pytest.mark.parametrize("k, queries", [(0, 7), (2, 154), (None, 448)])
def test_the_table_asks_only_for_conditionals_within_the_bound(monkeypatch, k, queries):
    dist = random_joint_distribution([2] * 7, seed=7)
    asked = []
    conditional = dist.oracle.conditional

    def counted(v, mask):
        asked.append(mask)
        return conditional(v, mask)

    monkeypatch.setattr(dist.oracle, "conditional", counted)
    exact_optimal_polytree(dist, k)
    assert len(asked) == queries
    assert max(mask.bit_count() for mask in asked) == (6 if k is None else k)


def test_peak_memory_of_a_seven_node_search():
    """A level's orientations (over 60 MB at n=7) are never materialised at
    once: scoring holds one chunk of BATCH_ROWS rows."""
    dist = random_joint_distribution([2] * 7, seed=7)
    tracemalloc.start()
    try:
        exact_optimal_polytree(dist, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
