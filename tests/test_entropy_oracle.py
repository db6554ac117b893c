"""The one memoised entropy oracle, its round-off rule, and the union-find.

Hypothesis draws the joints, query orders and union sequences with
``derandomize=True``, so every run checks the same examples.
"""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytreelab.distribution as distribution_mod
from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import (
    ENTROPY_CLAMP,
    Distribution,
    EntropyOracle,
    VariableMeta,
    conditional_entropy,
    entropy,
    mutual_information,
)
from polytreelab.errors import NumericsError
from polytreelab.gadget import CompiledGadget, GadgetParams
from polytreelab.structure import Structure, UnionFind, score


@st.composite
def joints(draw, max_n=6):
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = rng.exponential(size=arities)
    # Zero out some states so deterministic marginals and empty conditioning
    # states occur too.
    table[rng.random(size=table.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    if table.sum() == 0.0:
        table.flat[0] = 1.0
    table /= table.sum()
    return table


def _dist(table):
    return Distribution([VariableMeta(f"X{i}", a) for i, a in enumerate(table.shape)], table)


def _members(mask, n):
    return [i for i in range(n) if mask >> i & 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(joints(), st.randoms(use_true_random=False))
def test_oracle_conditional_equals_conditional_entropy_bit_for_bit(table, rnd):
    # Two joints over the same table, queried in different orders, so one
    # side answers from its memo where the other reduces afresh.
    left, right = _dist(table), _dist(table)
    n = left.n
    queries = [(v, m) for v in range(n) for m in range(1 << n) if not m >> v & 1]
    rnd.shuffle(queries)
    by_oracle = {q: left.oracle.conditional(*q) for q in queries}
    rnd.shuffle(queries)
    for v, m in queries:
        given_nodes = _members(m, n)
        rnd.shuffle(given_nodes)
        assert conditional_entropy(right, v, given_nodes) == by_oracle[(v, m)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(joints(), st.randoms(use_true_random=False))
def test_score_is_the_sum_of_the_oracle_conditionals(table, rnd):
    dist = _dist(table)
    n = dist.n
    parents = [[p for p in range(n) if p != v and rnd.random() < 0.4] for v in range(n)]
    breakdown = score(_dist(table), Structure(n, parents))
    terms = [dist.oracle.conditional(v, sum(1 << p for p in ps)) for v, ps in enumerate(parents)]
    assert breakdown.per_node_bits == tuple(terms)
    assert breakdown.total_bits == float(sum(terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
    )
))
def test_union_find_union_reports_merges(case):
    n, pairs = case
    uf = UnionFind(n)
    label = list(range(n))  # reference partition: one label per set
    for a, b in pairs:
        assert uf.union(a, b) is (label[a] != label[b])
        label = [label[a] if x == label[b] else x for x in label]
        for u in range(n):
            assert [uf.find(u) == uf.find(v) for v in range(n)] == [
                label[u] == label[v] for v in range(n)
            ]


def test_round_off_rule_is_shared_by_set_entropies_and_conditionals():
    values = {0b01: 1.0, 0b10: -ENTROPY_CLAMP / 2, 0b11: 1.0 - ENTROPY_CLAMP / 2, 0b100: -1e-9}
    calls = []

    def backend(mask):
        calls.append(mask)
        return values[mask]

    oracle = EntropyOracle(backend)
    assert oracle.h(0) == 0.0
    assert oracle.h(0b10) == 0.0
    assert oracle.conditional(1, 0b01) == 0.0  # (1 - c/2) - 1 is round-off
    with pytest.raises(NumericsError, match="entropy came out"):
        oracle.h(0b100)
    with pytest.raises(NumericsError):
        oracle.h(0b100)  # a failed query is not cached
    assert calls == [0b10, 0b11, 0b01, 0b100, 0b100]
    oracle = EntropyOracle({0b11: 0.5 - 1e-9, 0b10: 0.5}.__getitem__)
    with pytest.raises(NumericsError, match="conditional entropy came out"):
        oracle.conditional(0, 0b10)
    # A deterministic variable's -0.0 and the clamp's edge both read +0.0.
    oracle = EntropyOracle({0b01: -0.0, 0b10: -ENTROPY_CLAMP}.__getitem__)
    assert [math.copysign(1.0, oracle.h(m)) for m in (0b01, 0b10)] == [1.0, 1.0]


def test_entropy_queries_agree_through_every_entry_point():
    rng = np.random.default_rng(3)
    table = rng.exponential(size=(2, 3, 2, 2))
    dist = _dist(table / table.sum())
    assert entropy(dist, [2, 0]) == dist.oracle.h(0b101)
    assert entropy(dist, []) == 0.0
    assert conditional_entropy(dist, 1, [3, 0]) == dist.oracle.conditional(1, 0b1001)
    mi = mutual_information(dist, 3, 1)
    assert mi == mutual_information(dist, 1, 3)
    assert mi == dist.oracle.h(0b10) + dist.oracle.h(0b1000) - dist.oracle.h(0b1010)


def test_oracle_survives_pickling_with_its_memo():
    rng = np.random.default_rng(9)
    table = rng.exponential(size=(2, 2, 3))
    dist = _dist(table / table.sum())
    warm = {(v, m): dist.oracle.conditional(v, m) for v in range(3) for m in range(8) if not m >> v & 1}
    copy = pickle.loads(pickle.dumps(dist))
    for (v, m), value in warm.items():
        assert copy.oracle.conditional(v, m) == value
    assert copy.oracle.h(0b111) == entropy(dist)


def _gadget(name, blockers):
    formula = dict(bundled_formulas())[name]
    compiled = CompiledGadget(formula, GadgetParams(include_inedge_blockers=blockers))
    return compiled


@pytest.mark.parametrize("blockers", [False, True])
def test_gadget_joint_entropy_is_bit_identical_under_every_name_order(blockers):
    gadget = _gadget("two_variable", blockers)
    fresh = _gadget("two_variable", blockers)
    scopes = [("L1", "X1", "X2"), ("X1", "R1", "C1"), ("X2", "C2", "C3"), ("R1", "A1", "B1")]
    for scope in scopes:
        if not blockers and "A1" in scope:
            continue
        values = {gadget.joint_entropy_bits(order) for order in itertools.permutations(scope)}
        assert len(values) == 1, (scope, values)
        # The memoised answer equals a fresh gadget's first answer.
        assert values == {fresh.joint_entropy_bits(scope[::-1])}
        mask = sum(1 << gadget.node_names.index(name) for name in scope)
        assert values == {fresh._coin_entropy(mask)}


def test_gadget_conditionals_match_joint_differences():
    gadget = _gadget("single_variable", False)
    for given_nodes in (("R1",), ("C1", "C2"), ("R1", "C3")):
        joint = gadget.joint_entropy_bits(("X1",) + given_nodes)
        expected = joint - gadget.joint_entropy_bits(given_nodes)
        assert expected > 0.0
        assert gadget.conditional_entropy_bits("X1", given_nodes) == expected
        assert gadget.entropy_decrease_bits("X1", given_nodes) == (
            gadget.joint_entropy_bits(["X1"]) - expected
        )


def test_public_conditionals_take_set_entropies_through_the_public_entry_points(monkeypatch):
    # A wrapper rebound over ``entropy`` or ``joint_entropy_bits`` (as a
    # profiler does) sees every set entropy behind the public conditionals.
    asked = []

    def counting(original):
        def wrapper(*args):
            asked.append(args[-1])
            return original(*args)

        return wrapper

    monkeypatch.setattr(distribution_mod, "entropy", counting(entropy))
    rng = np.random.default_rng(5)
    table = rng.exponential(size=(2, 2, 3))
    dist = _dist(table / table.sum())
    conditional_entropy(dist, 0, [2, 1])
    mutual_information(dist, 2, 0)
    assert asked == [(0, 2, 1), (2, 1), (0,), (2,), (0, 2)]

    gadget = _gadget("single_variable", False)
    asked.clear()
    joint = counting(CompiledGadget.joint_entropy_bits)
    monkeypatch.setattr(CompiledGadget, "joint_entropy_bits", joint)
    gadget.entropy_decrease_bits("X1", ("R1",))
    assert asked == [["X1"], ["X1", "R1"], ["R1"]]
