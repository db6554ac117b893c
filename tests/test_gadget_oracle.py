"""The broadcast coin enumeration of ``CompiledGadget._coin_entropy`` against
the full-array enumeration it replaced: the same float, bit for bit, the same
refusal past the coin cap, and a memory peak of a few ``2^c`` grids. Both the
reference enumeration and a replay of ``sample_dataset`` read node values from
a table written here from the construction, not from the nodes' own rules."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import CSV_WRITE_BLOCK_ROWS, EntropyOracle
from polytreelab.errors import CapExceededError, InvariantError
from polytreelab.gadget import (
    ENTROPY_QUERY_MAX_COINS,
    CompiledGadget,
    GadgetParams,
    compile_cnf,
    verify_gadget,
)


def reference_values(node, bits):
    """The node's values from its coins' bits, per kind of the construction:
    a clause is its coin; a satellite is ``r`` plus ``a_t xor b_t`` at bit
    ``t``; a blocker holds coin ``t`` at bit ``t - 1``; a principal is
    ``(ca xor cb)*8 + (r xor cc xor w)*4 + prev*2 + next``; a chain node is the
    xor of its two coins."""
    b = [bits[c].astype(np.int64) for c in node.coins]
    if node.kind == "clause":
        return b[0]
    if node.kind == "satellite":
        k = (len(b) - 1) // 2
        return b[0] + sum((b[1 + t] ^ b[1 + k + t]) << (t + 1) for t in range(k))
    if node.kind == "blocker":
        return sum(bit << t for t, bit in enumerate(b))
    if node.kind == "principal":
        ca, cb, cc, r, w, prev, nxt = b
        return (ca ^ cb) * 8 + (r ^ cc ^ w) * 4 + prev * 2 + nxt
    assert node.kind == "chain", node.kind
    return b[0] ^ b[1]


def reference_coin_entropy(gadget, mask):
    """Joint entropy of the nodes in ``mask`` with one full ``2^c`` bit array
    per coin: the enumeration ``_coin_entropy`` ran before its broadcast grid."""
    node_list = [node for i, node in enumerate(gadget.nodes) if mask >> i & 1]
    coin_names = sorted({c for node in node_list for c in node.coins})
    if len(coin_names) > ENTROPY_QUERY_MAX_COINS:
        raise CapExceededError(
            f"entropy query spans {len(coin_names)} coins, cap is "
            f"{ENTROPY_QUERY_MAX_COINS}",
            constraint="entropy_query_max_coins",
        )
    count = 1 << len(coin_names)
    index = np.arange(count, dtype=np.int64)
    bits = {
        name: ((index >> pos) & 1).astype(np.int64)
        for pos, name in enumerate(coin_names)
    }
    probs = np.ones(count, dtype=np.float64)
    for name in coin_names:
        bias = gadget.coin_biases[name]
        probs *= np.where(bits[name] == 1, bias, 1.0 - bias)
    key = np.zeros(count, dtype=np.int64)
    radix = 1
    for node in node_list:
        key += reference_values(node, bits) * radix
        radix *= node.arity
    masses = np.bincount(key, weights=probs, minlength=radix)
    occupied = masses[masses > 1e-300]
    return float(-(occupied * np.log2(occupied)).sum())


def _signature(gadget, mask):
    """All that either enumeration reads of a query: the biases of its coins
    in sorted order and each node's kind, arity and coin ranks. Queries with
    one signature run the same arithmetic, so the reference runs once each."""
    nodes = [node for i, node in enumerate(gadget.nodes) if mask >> i & 1]
    coins = sorted({c for node in nodes for c in node.coins})
    rank = {c: i for i, c in enumerate(coins)}
    return (
        tuple(gadget.coin_biases[c] for c in coins),
        tuple((node.kind, node.arity, tuple(rank[c] for c in node.coins)) for node in nodes),
    )


def _outcome(fn, gadget, mask):
    try:
        return fn(gadget, mask).hex()
    except CapExceededError as exc:
        return ("CapExceededError", str(exc), exc.constraint)


def _assert_matches_reference(gadget, masks):
    """Compare every mask; return how many the reference refused at the cap."""
    reference = {}
    for mask in masks:
        key = _signature(gadget, mask)
        if key not in reference:
            reference[key] = _outcome(reference_coin_entropy, gadget, mask)
        assert _outcome(CompiledGadget._coin_entropy, gadget, mask) == reference[key], bin(mask)
    return sum(isinstance(outcome, tuple) for outcome in reference.values())


def _small_masks(gadget):
    """Every mask of one or two nodes."""
    singles = [1 << i for i in range(gadget.n)]
    return singles + [a | b for a, b in itertools.combinations(singles, 2)]


def _verify_gadget_masks(gadget):
    """The masks ``verify_gadget`` asks its oracle for."""
    asked = []

    def recording(mask):
        asked.append(mask)
        return gadget._coin_entropy(mask)

    gadget.oracle = EntropyOracle(recording)
    assert verify_gadget(gadget).ok
    return asked


def _gadget(name, **params):
    formula = dict(bundled_formulas())[name]
    return compile_cnf(formula, GadgetParams(**params))[0]


BLOCKERS = {"include_inedge_blockers": True}


@pytest.mark.parametrize(
    "name, params",
    [("single_variable", {}), ("single_variable", BLOCKERS), ("two_variable", {})],
)
def test_every_mask_matches_the_full_array_enumeration(name, params):
    gadget = _gadget(name, **params)
    _assert_matches_reference(gadget, range(1, 1 << gadget.n))


SMALL_MASK_CONFIGS = [("two_variable", BLOCKERS)] + [
    (name, params)
    for name in ("three_variable", "four_variable", "six_variable")
    for params in ({}, BLOCKERS)
]


@pytest.mark.parametrize("name, params", SMALL_MASK_CONFIGS)
def test_small_and_audited_masks_match_the_full_array_enumeration(name, params):
    gadget = _gadget(name, **params)
    _assert_matches_reference(gadget, _small_masks(gadget) + _verify_gadget_masks(gadget))


def test_six_blocker_copies_refuse_the_same_queries_at_the_cap():
    gadget = _gadget("two_variable", include_inedge_blockers=True, blocker_copies=6)
    assert _assert_matches_reference(gadget, _small_masks(gadget)) > 0
    with pytest.raises(CapExceededError, match="spans 26 coins"):
        gadget.joint_entropy_bits(["R1", "R2"])


def test_a_19_coin_query_peaks_below_four_grids():
    gadget = _gadget("two_variable", **BLOCKERS)
    names = ["R1", "X2", "L1"]
    coins = len({c for name in names for c in gadget.node(name).coins})
    assert coins == 19
    tracemalloc.start()
    try:
        gadget._coin_entropy(gadget._mask(names))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**coins * 8


@pytest.mark.parametrize("params", [{}, BLOCKERS], ids=["plain", "blockers"])
@pytest.mark.parametrize("name", [name for name, _ in bundled_formulas()])
def test_sampled_columns_follow_the_construction(name, params):
    # Replays sample_dataset's draws: one PCG64 stream, one uniform vector
    # per coin in creation order, a coin is 1 below its bias. The row counts
    # are part of one block, a single row, and two full blocks plus a part.
    gadget = _gadget(name, **params)
    seed = 11
    for rows in (200, 1, 2 * CSV_WRITE_BLOCK_ROWS + 3):
        rng = np.random.Generator(np.random.PCG64(seed))
        bits = {coin: rng.random(rows) < bias for coin, bias in gadget.coin_biases.items()}
        data = gadget.sample_dataset(rows, seed).rows
        assert data.shape == (rows, gadget.n)
        for column, node in enumerate(gadget.nodes):
            np.testing.assert_array_equal(
                data[:, column], reference_values(node, bits), f"{node.name} at {rows} rows"
            )


def test_a_sampled_value_outside_its_arity_is_an_invariant_error(monkeypatch):
    gadget = _gadget("two_variable")
    j = gadget.node_names.index("X1")
    node = gadget.nodes[j]
    bad = dataclasses.replace(node, value=lambda *bits: np.full(bits[0].shape, node.arity))
    monkeypatch.setattr(gadget, "nodes", gadget.nodes[:j] + (bad,) + gadget.nodes[j + 1 :])
    blocks = gadget.sample_blocks(10, seed=1)
    with pytest.raises(InvariantError, match="X1 sampled a value outside 0..15"):
        next(blocks)
