"""Exact and heuristic search for low-cost polytrees.

``exact_optimal_polytree`` enumerates every polytree (optionally with an
indegree bound ``k``) and returns a global minimizer of the score. Forests
are every acyclic subset of the n(n-1)/2 undirected edges, grown in numpy one
edge count at a time (``_forest_levels``): the forests with ``e + 1`` edges
come from those with ``e`` by adding a pair of larger index whose ends lie
in different components. Each level's orientations are scored in chunks of
``BATCH_ROWS``: the conditional ``cond[v, parent_mask]`` of every node and
parent set within the bound is read from the oracle once per search into a
table whose cells beyond the bound are ``+inf``, one float matmul of
per-forest weights with the level's orientation template gives the parent
masks, one ``take`` gathers the terms, and each total adds them left to
right in node order with ``node_ordered_total``, as ``score`` does; an
orientation is within the bound exactly when its total is finite, so at
``k = 0`` only the empty forest is scored. The result is the minimum of
(total, ``Structure.parents``), with ties broken toward the
lexicographically smallest parent tuples; that minimum does not depend on
visit order, so each chunk offers only its rows at the chunk minimum.

The search starts from the learned branching's key, read from the same
table, and prunes by a bound before it scores: ``least[v, nbrs]`` is the
least ``cond[v, P]`` over ``P ⊆ nbrs``, and a forest's bound adds
``least[v, nbrs_v]`` over its nodes' neighbour masks in node order, as the
totals are added. Float addition is monotone, so no orientation of the
forest totals less; forests bounded above the best so far are dropped
unscored, while a bound equal to it keeps its forest, so ties and the
result are those of the full enumeration. ``instances_enumerated`` is the
size of the search space, ``polytree_count(n, k)`` in closed form, not the
number of orientations scored. The search runs in one process; beyond the
table, its memory is the arrays of one chunk plus the 8-bit forests and
component labels of the level being scored and of the next one while it
grows.

``local_search_polytree`` is a steepest-descent heuristic; it never worsens
its seed but can stall at local minima (parity-style distributions defeat
it by design). A move cuts at most one edge and then links at most one pair
of trees of the cut forest, as ``_moves`` enumerates them: cutting
``u -> v`` alone is ``remove``; linking with nothing cut is ``add``; after a
cut, linking ``x -> y`` is ``swap``, and the link ``v -> u`` is also offered
as ``reverse``, so that structure is scored twice. A link needs room under
the bound ``k`` at its child. Each round applies the smallest
``(-gain, move)``, where a gain adds the cut child's term first; every move
scored counts towards ``instances_enumerated``.

Both searches read their score terms from ``dist.oracle.conditional``; the
learned branching they are compared against, which ``SearchReport``
carries, goes through the public entropies. ``dist`` is any entropy source
with ``n``, ``variables`` and ``oracle``: a ``Distribution`` or a
``CompiledGadget``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .branching import learn_optimal_branching
from .distribution import Distribution, EntropyOracle
from .errors import CapExceededError, InvariantError, ValidationError
from .structure import Structure, UnionFind, is_polytree, max_indegree, node_ordered_total, score

EXACT_MAX_NODES = 7
# Orientations per numpy scoring chunk, and parent forests per growth step;
# larger chunks buy no speed and raise peak memory.
BATCH_ROWS = 2048
# Score differences at or below these thresholds count as "no improvement"
# and "optimal is zero" respectively.
LOCAL_IMPROVEMENT_EPS = 1e-9
RATIO_DENOMINATOR_EPS = 1e-9
DEFAULT_LOCAL_BUDGET = 1000


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a polytree search.

    ``ratio`` is branching score over best score and is undefined (None)
    when the best score is at most ``RATIO_DENOMINATOR_EPS``;
    ``excess_bits`` is always the additive gap between the two scores.
    ``branching`` is the learned optimal branching that was scored.
    """

    best: Structure
    best_score_bits: float
    branching: Structure
    branching_score_bits: float
    ratio: float | None
    excess_bits: float
    instances_enumerated: int


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _conditional_table(oracle: EntropyOracle, n: int, k: int) -> np.ndarray:
    """``cond[v, mask]`` for every ``v`` not in ``mask`` with at most ``k``
    parents, ``+inf`` for larger masks, NaN where ``v`` is in ``mask``.

    The finite cells are exactly the conditionals the orientations of all
    forests reach within the bound: the star on ``mask ∪ {v}`` with every
    edge pointing into ``v`` asks for ``(v, mask)``. An orientation that
    breaks the bound thus totals ``+inf``, and the oracle is never asked for
    a conditional beyond it.
    """
    cond = np.full((n, 1 << n), np.nan)
    for v in range(n):
        for mask in range(1 << n):
            if not mask >> v & 1:
                cond[v, mask] = oracle.conditional(v, mask) if mask.bit_count() <= k else np.inf
    return cond


def _orientation_template(e: int) -> np.ndarray:
    """``(2e, 2^e)`` float 0/1 matrix: row ``2j`` is set where orientation bit
    ``j`` is clear (edge ``j`` runs a -> b), row ``2j + 1`` where it is set
    (b -> a)."""
    bits = np.arange(1 << e) >> np.arange(e)[:, None] & 1
    return np.stack((1 - bits, bits), axis=1).reshape(2 * e, 1 << e).astype(float)


def _forest_levels(n: int):
    """Yield ``(e, chunks)`` for ``e = 0 .. n-1``: every forest with ``e``
    edges, as rows of increasing pair indices into ``_all_pairs(n)``, in a
    list of chunks.

    Level ``e + 1`` grows from level ``e`` in chunks of ``BATCH_ROWS``
    parents: a row gains each pair of larger index than its last edge whose
    ends carry different component labels, and the two labels merge. So
    every forest is made once, from the forest of its ``e`` smallest edges.
    """
    a, b = np.array(_all_pairs(n), dtype=np.intp).reshape(-1, 2).T
    index = np.arange(len(a))
    dtype = np.min_scalar_type(max(len(a), n))
    level = [(np.zeros((1, 0), dtype), np.arange(n, dtype=dtype)[None])]
    for e in range(n):
        yield e, [forests for forests, _ in level]
        if e == n - 1:
            return
        grown = []
        for forests, labels in level:
            for s in range(0, len(forests), BATCH_ROWS):
                f, lab = forests[s : s + BATCH_ROWS], labels[s : s + BATCH_ROWS]
                last = f[:, -1].astype(np.intp) if e else np.full(len(f), -1)
                rows, pair = np.nonzero((index > last[:, None]) & (lab[:, a] != lab[:, b]))
                keep, drop = lab[rows, a[pair]][:, None], lab[rows, b[pair]][:, None]
                merged = lab[rows]
                grown.append(
                    (
                        np.concatenate((f[rows], pair[:, None].astype(dtype)), axis=1),
                        np.where(merged == drop, keep, merged),
                    )
                )
        level = grown


def _least_over_subsets(cond: np.ndarray) -> np.ndarray:
    """``least[v, mask]``, the least ``cond[v, P]`` over every ``P ⊆ mask``,
    by one subset-min pass per bit; NaN where ``v`` is in ``mask``.

    An orientation gives ``v`` a parent set among its forest neighbours
    ``nbrs``, so its term is at least ``least[v, nbrs]``, and since float
    addition is monotone in each argument its node-ordered total is at
    least the node-ordered sum of those bounds.
    """
    least = cond.copy()
    n = len(cond)
    for i in range(n):
        # Masks as (high bits, bit i, low bits): [:, :, 1] have bit i set.
        halves = least.reshape(n, -1, 2, 1 << i)
        np.minimum(halves[:, :, 1], halves[:, :, 0], out=halves[:, :, 1])
    return least


def _forest_bounds(
    forests: np.ndarray, neighbours: np.ndarray, least: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Lower bound on every orientation's total, per forest: the node-ordered
    sum of ``least[v, nbrs_v]`` over each node's neighbour mask, where
    ``neighbours[v, p]`` is the bit pair ``p`` gives ``v`` and ``least`` is
    the raveled ``_least_over_subsets`` table."""
    nbrs = np.repeat(offsets, len(forests), axis=1)
    for j in range(forests.shape[1]):
        nbrs += neighbours[:, forests[:, j]]
    return node_ordered_total(least.take(nbrs))


@functools.cache
def _hung(r: int, room: int, k: int) -> int:
    """Ways to hang oriented trees on ``r`` labelled nodes below a root that
    may take ``room`` more parents, every node keeping at most ``k``: the
    block holding the smallest label has ``s`` nodes and any of them as its
    top, whose edge to the root points up (taking room) or down (taking one
    of the top's own ``k``)."""
    if room < 0:
        return 0
    if r == 0:
        return 1
    return sum(
        comb(r - 1, s - 1)
        * s
        * (
            _hung(s - 1, k, k) * _hung(r - s, room - 1, k)
            + _hung(s - 1, k - 1, k) * _hung(r - s, room, k)
        )
        for s in range(1, r + 1)
    )


@functools.cache
def polytree_count(n: int, k: int) -> int:
    """Polytrees on ``n`` labelled nodes with at most ``k`` parents per node:
    the orientations within the bound of every forest, the size of the
    exact search space. A forest splits into the tree of its smallest label,
    of ``s`` nodes rooted there, and a forest on the rest."""
    if n == 0:
        return 1
    return sum(
        comb(n - 1, s - 1) * _hung(s - 1, k, k) * polytree_count(n - s, k) for s in range(1, n + 1)
    )


def exact_optimal_polytree(
    dist: Distribution,
    k: int | None = None,
    *,
    max_nodes: int = EXACT_MAX_NODES,
) -> SearchReport:
    """Global minimum-score polytree with indegree bound ``k`` (None for
    unbounded), found by exhaustive enumeration.

    A forest is scored only if its lower bound, the node-ordered sum of
    each node's least conditional over subsets of its neighbours, is at
    most the best total so far, which starts at the learned branching's;
    the result and its bits are those of scoring every orientation.
    ``instances_enumerated`` counts the polytrees within the bound, the
    size of the search space, not the orientations scored.

    Refuses more than ``max_nodes`` variables; raise the cap explicitly if
    you accept the exponential running time. The search runs in one
    process.
    """
    n = dist.n
    if n > max_nodes:
        raise CapExceededError(
            f"exact polytree search is exponential; n={n} exceeds the cap of {max_nodes}",
            constraint="exact_search_max_nodes",
        )
    if k is None:
        k_eff = n - 1
    else:
        if k < 0:
            raise ValidationError(f"indegree bound k must be >= 0, got {k}")
        k_eff = min(k, n - 1)

    cond = _conditional_table(dist.oracle, n, k_eff)
    flat, least = cond.ravel(), _least_over_subsets(cond).ravel()
    offsets = (np.arange(n) << n)[:, None]
    # Pair p = (a, b) adds 2^a to node b's mask when it runs a -> b
    # (weights[b, p, 0]) and 2^b to node a's when it runs b -> a (weights[a, p, 1]).
    weights = np.zeros((n, n * (n - 1) // 2, 2))
    for p, (a, b) in enumerate(_all_pairs(n)):
        weights[b, p, 0] = 1 << a
        weights[a, p, 1] = 1 << b
    neighbours = weights.sum(axis=2).astype(np.intp)
    # rank[mask] orders parent masks as their lists of parent indices compare,
    # so the running best (total, *rank[masks]) compares like (total, parents).
    order = sorted(range(1 << n), key=lambda m: [i for i in range(n) if m >> i & 1])
    rank = np.empty(1 << n, dtype=np.int64)
    rank[order] = np.arange(1 << n)
    # The branching is one of the orientations scored below, or totals +inf
    # when k = 0 and it has an edge, so starting from its key changes no
    # minimum and bounds the search from the first forest on.
    branching = learn_optimal_branching(dist)
    masks = [sum(1 << p for p in ps) for ps in branching.parents]
    branching_total = node_ordered_total(flat.take(offsets[:, 0] + masks))
    best: tuple = (float(branching_total), *rank[masks].tolist())
    for e, level in _forest_levels(n):
        template = _orientation_template(e)
        step = max(1, BATCH_ROWS >> e)
        for forests in (c[i : i + BATCH_ROWS] for c in level for i in range(0, len(c), BATCH_ROWS)):
            # A forest bounded above the best so far cannot win; ties stay.
            forests = forests[_forest_bounds(forests, neighbours, least, offsets) <= best[0]]
            for s in range(0, len(forests), step):
                rows = forests[s : s + step]
                # The masks are sums of distinct powers of two below 2^n, so
                # the float matmul is exact.
                w = weights[:, rows].reshape(n * len(rows), 2 * e)
                cells = (w @ template).reshape(n, len(rows) << e).astype(np.intp)
                cells += offsets
                total = node_ordered_total(flat.take(cells))
                low = float(total.min())
                if low <= best[0]:
                    ranks = rank[cells[:, total == low] - offsets]
                    # The smallest parent tuples among the tied rows: lexsort's
                    # last key, node 0, is its primary one.
                    row = np.lexsort(ranks[::-1])[0]
                    best = min(best, (low, *ranks[:, row].tolist()))
        if k_eff == 0:
            break  # Every forest with an edge breaks the bound.

    structure = _structure_of([order[r] for r in best[1:]])
    return _finish_report(dist, branching, structure, best[0], polytree_count(n, k_eff))


def _finish_report(
    dist: Distribution,
    branching: Structure,
    best: Structure,
    best_bits: float,
    enumerated: int,
) -> SearchReport:
    branching_bits = score(dist, branching).total_bits
    if best_bits > RATIO_DENOMINATOR_EPS:
        ratio: float | None = branching_bits / best_bits
    else:
        ratio = None
    excess = branching_bits - best_bits
    return SearchReport(
        best=best,
        best_score_bits=best_bits,
        branching=branching,
        branching_score_bits=branching_bits,
        ratio=ratio,
        excess_bits=excess,
        instances_enumerated=enumerated,
    )


def _structure_of(parent_masks: list[int]) -> Structure:
    n = len(parent_masks)
    return Structure(n, [tuple(i for i in range(n) if m >> i & 1) for m in parent_masks])


def _check_k_polytree(structure: Structure, k: int) -> None:
    """Raise ``InvariantError`` unless ``structure`` is a polytree with indegree <= ``k``.

    Local search applies only moves that keep this invariant; the check runs
    after every move, also under ``python -O``.
    """
    if not is_polytree(structure) or max_indegree(structure) > k:
        parents = [list(ps) for ps in structure.parents]
        raise InvariantError(f"local search left the {k}-polytrees: parents {parents}")


def _moves(n: int, masks: list[int], k: int):
    """Yield ``(move, {node: new mask})`` for every k-polytree one move away.

    For each ``cut`` in ``[None, *edges]``: a real cut ``u -> v`` yields
    ``("remove", u, v)``, then ``("reverse", u, v)`` when ``u`` has room for
    another parent; then every link ``x -> y`` between two trees of the cut
    forest, where ``y`` has room, yields ``("add", x, y)`` when nothing was
    cut and ``("swap", u, v, x, y)`` otherwise. The changes list the cut
    child first.
    """
    edges = [(u, v) for v in range(n) for u in range(n) if masks[v] >> u & 1]
    for cut in [None, *edges]:
        cut_masks = list(masks)
        uf = UnionFind(n)
        for edge in edges:
            if edge != cut:
                uf.union(*edge)
        comp = [uf.find(x) for x in range(n)]
        changes: dict[int, int] = {}
        if cut is not None:
            u, v = cut
            cut_masks[v] &= ~(1 << u)
            changes = {v: cut_masks[v]}
            yield ("remove", u, v), changes
            if masks[u].bit_count() < k:
                yield ("reverse", u, v), {**changes, u: masks[u] | 1 << v}
        for y in range(n):
            if cut_masks[y].bit_count() >= k:
                continue
            for x in range(n):
                if comp[x] != comp[y] and (x, y) != cut:
                    move = ("add", x, y) if cut is None else ("swap", *cut, x, y)
                    yield move, {**changes, y: cut_masks[y] | 1 << x}


def local_search_polytree(
    dist: Distribution,
    k: int,
    seed_structure: Structure | None = None,
    *,
    budget: int = DEFAULT_LOCAL_BUDGET,
) -> SearchReport:
    """Steepest-descent search over k-polytrees.

    Moves (see ``_moves``): add an edge, remove an edge, reverse an edge, and
    swap (remove one edge, add another). Each round applies the move with
    the largest score decrease, requiring an improvement greater than
    ``LOCAL_IMPROVEMENT_EPS``; ties pick the lexicographically smallest move
    encoding. Stops when no move improves or ``budget`` moves were applied.
    The seed defaults to the learned optimal branching; the result never
    scores worse than the seed.
    """
    n = dist.n
    if k < 1:
        raise ValidationError(f"local search needs an indegree bound k >= 1, got {k}")
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    branching = learn_optimal_branching(dist)
    if seed_structure is None:
        seed_structure = branching
    if seed_structure.n != n:
        raise ValidationError(
            f"seed has {seed_structure.n} nodes but distribution has {n} variables"
        )
    if not is_polytree(seed_structure) or max_indegree(seed_structure) > k:
        raise ValidationError("seed structure must be a polytree with indegree <= k")

    oracle = dist.oracle
    parent_masks = [sum(1 << p for p in ps) for ps in seed_structure.parents]
    terms = [oracle.conditional(v, parent_masks[v]) for v in range(n)]
    evaluated = 0
    for _ in range(budget):
        best = None
        for move, changes in _moves(n, parent_masks, k):
            evaluated += 1
            gain = sum(terms[v] - oracle.conditional(v, m) for v, m in changes.items())
            if gain > LOCAL_IMPROVEMENT_EPS and (best is None or (-gain, move) < best[0]):
                best = (-gain, move), changes
        if best is None:
            break
        for v, mask in best[1].items():
            parent_masks[v] = mask
            terms[v] = oracle.conditional(v, mask)
        _check_k_polytree(_structure_of(parent_masks), k)

    structure = _structure_of(parent_masks)
    best_bits = score(dist, structure).total_bits
    return _finish_report(dist, branching, structure, best_bits, max(evaluated, 1))
