"""The contract every entropy source keeps: a random ``Distribution`` and a
``CompiledGadget`` answer set entropies through the same ``oracle``, and the
learners and searches rely on each of these properties.

Examples are drawn by hypothesis with ``derandomize=True``, so every run
draws the same ones. A ``Distribution`` example draws 1 to 6 arities in
1..3 and a generator seed. A gadget source is one of ``single_variable`` and
``two_variable``, compiled with and without in-edge blockers. Each example
then draws an order of the nodes and a size, and takes the nodes in that
order, up to that size, skipping any that would take the set's coins past
``ENTROPY_QUERY_MAX_COINS``; that set ``U`` is the universe, and every set
queried is a subset of it, so no query passes the coin cap. Two subsets
``A`` and ``B`` of ``U`` are drawn as random bit masks within ``U``, and so
is a parent set ``P`` of a node ``v`` drawn from ``U``, with ``v`` removed.
Besides the contract's properties, every set queried must have the bits of
a reference computed apart from the oracle (``reference_h``).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import entropy
from polytreelab.gadget import ENTROPY_QUERY_MAX_COINS, CompiledGadget, GadgetParams
from polytreelab.generators import random_joint_distribution
from test_gadget_oracle import reference_coin_entropy

TOL = 1e-12


@functools.cache
def gadget(name, blockers):
    formula = dict(bundled_formulas())[name]
    return CompiledGadget(formula, GadgetParams(include_inedge_blockers=blockers))


SOURCES = {
    "distribution": st.builds(
        random_joint_distribution,
        st.lists(st.integers(1, 3), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    ),
    **{
        f"{name}{'+blockers' if blockers else ''}": st.builds(
            gadget, st.just(name), st.just(blockers)
        )
        for name in ("single_variable", "two_variable")
        for blockers in (False, True)
    },
}


@functools.cache
def reference_h(source, mask):
    """The entropy of the nodes in ``mask``, computed apart from the oracle:
    for a joint, the plug-in entropy of the marginal table left when the
    other axes are summed out; for a gadget, the full-array coin enumeration
    of ``test_gadget_oracle``, which reads each node's coins and value rule
    from the construction rather than from the node's bit rows."""
    if isinstance(source, CompiledGadget):
        return reference_coin_entropy(source, mask)
    dropped = tuple(i for i in range(source.n) if not mask >> i & 1)
    masses = np.asarray(source.table.sum(axis=dropped)).ravel()
    masses = masses[masses > 0]
    return float(-(masses * np.log2(masses)).sum())


def node_coins(source, v):
    return set(source.nodes[v].coins) if isinstance(source, CompiledGadget) else set()


def members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@st.composite
def queries(draw, source_name):
    source = draw(SOURCES[source_name])
    order = draw(st.permutations(range(source.n)))
    size = draw(st.integers(1, source.n))
    picked, coins = [], set()
    for v in order[:size]:
        more = coins | node_coins(source, v)
        if len(more) <= ENTROPY_QUERY_MAX_COINS:
            picked, coins = picked + [v], more
    universe = sum(1 << i for i in picked)
    a, b, p = (draw(st.integers(0, universe)) & universe for _ in range(3))
    v = draw(st.sampled_from(picked))
    return source, picked, universe, a, b, v, p & ~(1 << v)


@pytest.mark.parametrize("source_name", sorted(SOURCES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_entropy_source_contract(source_name, data):
    source, picked, universe, a, b, v, p = data.draw(queries(source_name))
    h = source.oracle.h
    assert h(0) == 0.0
    for s in (universe, a, b, a | b, a & b, p):
        cap = sum(math.log2(source.variables[i].arity) for i in members(s))
        assert 0.0 <= h(s) <= cap + TOL
    # Monotone: a set has at least the entropy of any subset of it.
    assert h(a) <= h(a | b) + TOL
    assert h(b) <= h(a | b) + TOL
    # Submodular: H(A u B) + H(A n B) <= H(A) + H(B).
    assert h(a | b) + h(a & b) <= h(a) + h(b) + TOL
    assert source.oracle.conditional(v, p) == pytest.approx(h(p | 1 << v) - h(p), abs=TOL)
    # The named indices are a set: their order does not change the bits.
    assert entropy(source, picked) == entropy(source, sorted(picked)) == h(universe)
    # Every queried set has the bits of the reference.
    for s in (universe, a, b, a | b, a & b, p, p | 1 << v):
        assert h(s) == pytest.approx(reference_h(source, s), abs=TOL), bin(s)
