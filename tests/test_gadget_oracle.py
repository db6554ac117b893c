"""The broadcast coin enumeration of ``CompiledGadget._coin_entropy`` against
the full-array enumeration it replaced: the same float, bit for bit, the same
refusal past the coin cap, and a memory peak of a few ``2^c`` grids. Both the
reference enumeration and a replay of ``sample_dataset`` read node coins and
values from rules written here from the construction, not from the nodes' own
bit rows."""

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
    GadgetNode,
    GadgetParams,
    verify_gadget,
)


def reference_node(gadget, name):
    """The coins, arity and value rule of node ``name``, written here from
    the construction: its kind is the letter of its name, and its coins are
    named from its index, the formula's occurrences and the blocker copies.
    A clause is its coin; a satellite is ``r`` plus ``a_t xor b_t`` at bit
    ``t``; a blocker holds coin ``t`` at bit ``t - 1``; a principal is
    ``(ca xor cb)*8 + (r xor cc xor w)*4 + prev*2 + next``; a chain node is
    the xor of its two coins. The value rule takes the coins' int64 bits in
    the order of the coins."""
    kind, i = name[0], int(name[1:])
    k = gadget.params.effective_blocker_copies
    if kind == "C":
        return (f"c{i}",), 2, lambda c: c
    if kind in "AB":
        coins = tuple(f"{kind.lower()}{i}_{t}" for t in range(1, k + 1))
        return coins, 2**k, lambda *b: sum(bit << t for t, bit in enumerate(b))
    if kind == "R":
        if not gadget.params.include_inedge_blockers:
            return (f"r{i}",), 2, lambda r: r
        a_coins, b_coins = reference_node(gadget, f"A{i}")[0], reference_node(gadget, f"B{i}")[0]

        def shielded(r, *ab):
            return r + sum((ab[t] ^ ab[k + t]) << (t + 1) for t in range(k))

        return (f"r{i}",) + a_coins + b_coins, 2 ** (k + 1), shielded
    if kind == "X":
        (a, _), (b, _), (c, _) = gadget.formula.occurrences(i)
        coins = (f"c{a + 1}", f"c{b + 1}", f"c{c + 1}", f"r{i}", f"w{i}", f"prev{i}", f"next{i}")

        def principal(ca, cb, cc, r, w, prev, nxt):
            return (ca ^ cb) * 8 + (r ^ cc ^ w) * 4 + prev * 2 + nxt

        return coins, 16, principal
    assert kind == "L", name
    return (f"next{i}", f"prev{i + 1}"), 2, lambda nxt, prev: nxt ^ prev


def reference_values(gadget, name, bits):
    """Node ``name``'s values from the coins' bits, by ``reference_node``."""
    coins, _, rule = reference_node(gadget, name)
    return rule(*(bits[c].astype(np.int64) for c in coins))


def reference_coin_entropy(gadget, mask):
    """Joint entropy of the nodes in ``mask`` with one full ``2^c`` bit array
    per coin: the enumeration ``_coin_entropy`` ran before its broadcast grid."""
    names = [gadget.node_names[i] for i in range(gadget.n) if mask >> i & 1]
    coin_names = sorted({c for name in names for c in reference_node(gadget, name)[0]})
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
    for name in names:
        key += reference_values(gadget, name, bits) * radix
        radix *= reference_node(gadget, name)[1]
    masses = np.bincount(key, weights=probs, minlength=radix)
    occupied = masses[masses > 1e-300]
    return float(-(occupied * np.log2(occupied)).sum())


def _signature(gadget, mask):
    """All that either enumeration reads of a query: the biases of its coins
    in sorted order and each node's kind, arity and coin ranks. Queries with
    one signature run the same arithmetic, so the reference runs once each."""
    names = [gadget.node_names[i] for i in range(gadget.n) if mask >> i & 1]
    nodes = [(name[0],) + reference_node(gadget, name)[:2] for name in names]
    coins = sorted({c for _, node_coins, _ in nodes for c in node_coins})
    rank = {c: i for i, c in enumerate(coins)}
    return (
        tuple(gadget.coin_biases[c] for c in coins),
        tuple((kind, arity, tuple(rank[c] for c in cs)) for kind, cs, arity in nodes),
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
    return CompiledGadget(formula, GadgetParams(**params))


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
                data[:, column],
                reference_values(gadget, node.name, bits),
                f"{node.name} at {rows} rows",
            )


@pytest.mark.parametrize("params", [{}, BLOCKERS], ids=["plain", "blockers"])
def test_samples_do_not_depend_on_the_block_size(monkeypatch, params):
    gadget = _gadget("two_variable", **params)
    row_counts = (1, 7, 8, 200)
    default = {rows: gadget.sample_dataset(rows, 11).rows for rows in row_counts}
    monkeypatch.setattr("polytreelab.gadget.CSV_WRITE_BLOCK_ROWS", 7)
    for rows in row_counts:
        sizes = [len(block) for block in gadget.sample_blocks(rows, 11)]
        assert sizes == [7] * (rows // 7) + [rows % 7] * (rows % 7 > 0)
        np.testing.assert_array_equal(gadget.sample_dataset(rows, 11).rows, default[rows])


def test_a_sampled_value_outside_its_arity_is_an_invariant_error(monkeypatch):
    gadget = _gadget("two_variable")
    value = GadgetNode.value

    def faulty(node, bits):
        values = value(node, bits)
        return np.full(values.shape, node.arity) if node.name == "X1" else values

    monkeypatch.setattr(GadgetNode, "value", faulty)
    blocks = gadget.sample_blocks(10, seed=1)
    with pytest.raises(InvariantError, match="X1 sampled a value outside 0..15"):
        next(blocks)
