"""Exact and heuristic search for low-cost polytrees.

``exact_optimal_polytree`` enumerates every polytree (optionally with an
indegree bound ``k``) and returns a global minimizer of the score. Forests
are every acyclic subset of the n(n-1)/2 undirected edges, discovered depth
first in increasing edge-index order with union-find rejection of cycles.
Their orientations are scored in numpy batches (``_ForestScorer``): the
conditional ``cond[v, parent_mask]`` of every node and parent set is read
from the oracle once per search, one integer matmul gives the parent masks
of every orientation in a batch, orientations violating the indegree bound
are dropped by a popcount lookup, and each total adds the node terms left to
right in node order, the same float additions as Python 3.11's
``sum(terms)``. The result is the minimum of (total, parent-set encoding),
with ties broken toward the lexicographically smallest encoding; that
minimum does not depend on visit order, so each batch offers only its rows
at the batch minimum, and results are deterministic under ``jobs > 1`` (the
edge-subset space is partitioned by the smallest included edge and partial
results are merged in a fixed order).

``local_search_polytree`` is a steepest-descent heuristic over the moves
add / remove / reverse / swap; it never worsens its seed but can stall at
local minima (parity-style distributions defeat it by design).

Both searches read their score terms from ``dist.oracle.conditional``, so
one memo serves every first-edge task run in a process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .branching import learn_optimal_branching
from .distribution import Distribution, EntropyOracle
from .errors import CapExceededError, InvariantError, ValidationError
from .structure import Structure, UnionFind, is_polytree, max_indegree, score

EXACT_MAX_NODES = 7
# Orientations per numpy scoring batch; larger batches buy little speed and
# raise peak memory.
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
    """

    best: Structure
    best_score_bits: float
    branching_score_bits: float
    ratio: float | None
    excess_bits: float
    instances_enumerated: int


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


class _Best:
    """Running minimum of (score, parent-set encoding)."""

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

    def merge(self, other: "_Best") -> None:
        if other.key is None:
            return
        if other.score < self.score or (
            other.score == self.score and self.key is not None and other.key < self.key
        ):
            self.score = other.score
            self.key = other.key
            self.parents = other.parents


def _conditional_table(oracle: EntropyOracle, n: int) -> np.ndarray:
    """``cond[v, mask]`` for every ``v`` not in ``mask``; NaN where ``v`` is.

    These are exactly the conditionals the orientations of all forests reach:
    the star on ``mask ∪ {v}`` with every edge pointing into ``v`` asks for
    ``(v, mask)``.
    """
    cond = np.full((n, 1 << n), np.nan)
    for v in range(n):
        for mask in range(1 << n):
            if not mask >> v & 1:
                cond[v, mask] = oracle.conditional(v, mask)
    return cond


def _orientation_template(e: int) -> np.ndarray:
    """``(2e, 2^e)`` 0/1 matrix: row ``j`` is set where orientation bit ``j`` is
    clear (edge ``j`` runs a -> b), row ``e + j`` where it is set (b -> a)."""
    bits = np.arange(1 << e) >> np.arange(e)[:, None] & 1
    return np.concatenate((1 - bits, bits))


class _ForestScorer:
    """Scores every orientation of buffered forests in numpy batches.

    A forest is a tuple of pair indices into ``_all_pairs(n)``. Forests wait
    in one buffer per edge count ``e`` until the buffer holds about
    ``BATCH_ROWS`` orientations. For a batch of ``F`` forests, the parent
    masks of all ``F * 2^e`` orientations come from one integer matmul of the
    per-forest weights (node ``b`` gains ``2^a`` when pair ``(a, b)`` runs
    a -> b, node ``a`` gains ``2^b`` otherwise) with the orientation
    template; the bits are disjoint, so the sum is the OR.
    """

    def __init__(self, cond: np.ndarray, k: int, best: _Best) -> None:
        n = cond.shape[0]
        self.n = n
        self.k = k
        self.best = best
        self.cond = cond
        self.popcount = np.array([int.bit_count(m) for m in range(1 << n)])
        # rank[mask] orders parent masks as _Best orders their index tuples.
        order = sorted(range(1 << n), key=lambda m: [i for i in range(n) if m >> i & 1])
        self.rank = np.empty(1 << n, dtype=np.int64)
        self.rank[order] = np.arange(1 << n)
        pairs = _all_pairs(n)
        # weights[v, p] (a -> b) and weights[v, len(pairs) + p] (b -> a).
        self.weights = np.zeros((n, 2 * len(pairs)), dtype=np.int64)
        for p, (a, b) in enumerate(pairs):
            self.weights[b, p] = 1 << a
            self.weights[a, len(pairs) + p] = 1 << b
        self.n_pairs = len(pairs)
        self.pending: dict[int, list[tuple[int, ...]]] = {}
        self.scored = 0

    def add(self, forest: tuple[int, ...]) -> None:
        e = len(forest)
        batch = self.pending.setdefault(e, [])
        batch.append(forest)
        if len(batch) << e >= BATCH_ROWS:
            self._flush(e)

    def finish(self) -> int:
        for e in list(self.pending):
            self._flush(e)
        return self.scored

    def _flush(self, e: int) -> None:
        forests = np.array(self.pending.pop(e), dtype=np.int64)
        n, rows = self.n, len(forests) << e
        columns = np.concatenate((forests, forests + self.n_pairs), axis=1)
        w = self.weights[:, columns].reshape(n * len(forests), 2 * e)
        masks = (w @ _orientation_template(e)).reshape(n, rows)
        ok = self.popcount[masks].max(axis=0) <= self.k
        count = int(np.count_nonzero(ok))
        if not count:
            return
        self.scored += count
        terms = self.cond[np.arange(n)[:, None], masks]
        # Node order, left to right from 0.0: the additions of Python 3.11's
        # sum(terms), so totals and their ties match the scalar walk exactly.
        total = terms[0] + 0.0
        for v in range(1, n):
            total += terms[v]
        total[~ok] = np.inf
        low = float(total.min())
        if low <= self.best.score:
            tied = np.flatnonzero(total == low)
            # The smallest encoding among the tied rows: lexsort's last key,
            # node 0, is its primary one.
            row = tied[np.lexsort(self.rank[masks[::-1, tied]])[0]]
            self.best.offer(low, masks[:, row].tolist(), n)


def _enumerate_with_first_edge(cond: np.ndarray, k: int, first: int) -> tuple[int, _Best]:
    """Walk every forest whose smallest included edge index equals ``first``."""
    n = cond.shape[0]
    pairs = _all_pairs(n)
    best = _Best()
    scorer = _ForestScorer(cond, k, best)
    uf = UnionFind(n)
    chosen: list[int] = []

    def extend(next_index: int) -> None:
        scorer.add(tuple(chosen))
        for idx in range(next_index, len(pairs)):
            a, b = pairs[idx]
            record = uf.union(a, b)
            if record is None:
                continue
            chosen.append(idx)
            extend(idx + 1)
            chosen.pop()
            uf.undo(record)

    uf.union(*pairs[first])
    chosen.append(first)
    extend(first + 1)
    return scorer.finish(), best


def exact_optimal_polytree(
    dist: Distribution,
    k: int | None = None,
    *,
    max_nodes: int = EXACT_MAX_NODES,
    jobs: int = 1,
) -> SearchReport:
    """Global minimum-score polytree with indegree bound ``k`` (None for
    unbounded), found by exhaustive enumeration.

    Refuses more than ``max_nodes`` variables; raise the cap explicitly if
    you accept the exponential running time. ``jobs`` only changes wall-clock
    time, never the result.
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
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")

    pairs = _all_pairs(n)
    cond = _conditional_table(dist.oracle, n)
    best = _Best()
    # The empty forest is every task's common ancestor; score it once here.
    root = _ForestScorer(cond, k_eff, best)
    root.add(())
    enumerated = root.finish()

    tasks = range(len(pairs))
    if jobs == 1 or len(tasks) <= 1:
        results = [_enumerate_with_first_edge(cond, k_eff, first) for first in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_enumerate_with_first_edge, repeat(cond), repeat(k_eff), tasks))
    for counter, partial in results:
        enumerated += counter
        best.merge(partial)

    assert best.parents is not None
    structure = _structure_of(list(best.parents))
    branching = learn_optimal_branching(dist)
    branching_bits = score(dist, branching).total_bits
    return _finish_report(structure, best.score, branching_bits, enumerated)


def _finish_report(
    best: Structure, best_bits: float, branching_bits: float, enumerated: int
) -> SearchReport:
    if best_bits > RATIO_DENOMINATOR_EPS:
        ratio: float | None = branching_bits / best_bits
    else:
        ratio = None
    excess = branching_bits - best_bits
    return SearchReport(
        best=best,
        best_score_bits=best_bits,
        branching_score_bits=branching_bits,
        ratio=ratio,
        excess_bits=excess,
        instances_enumerated=enumerated,
    )


def _components_without_edge(
    n: int, edges: list[tuple[int, int]], skip: tuple[int, int] | None
) -> list[int]:
    uf = UnionFind(n)
    for edge in edges:
        if edge != skip:
            uf.union(edge[0], edge[1])
    return [uf.find(v) for v in range(n)]


def _structure_of(parent_masks: list[int]) -> Structure:
    n = len(parent_masks)
    return Structure(n, [tuple(i for i in range(n) if m >> i & 1) for m in parent_masks])


def _check_k_polytree(structure: Structure, k: int) -> None:
    """Raise ``InvariantError`` unless ``structure`` is a polytree with indegree <= ``k``.

    Local search applies only moves that keep this invariant; the check runs
    after every move, also under ``python -O``.
    """
    if not is_polytree(structure) or max_indegree(structure) > k:
        parents = [sorted(ps) for ps in structure.parents]
        raise InvariantError(f"local search left the {k}-polytrees: parents {parents}")


def local_search_polytree(
    dist: Distribution,
    k: int,
    seed_structure: Structure | None = None,
    *,
    budget: int = DEFAULT_LOCAL_BUDGET,
) -> SearchReport:
    """Steepest-descent search over k-polytrees.

    Moves: add an edge, remove an edge, reverse an edge, and swap (remove
    one edge, add another). Each round applies the move with the largest
    score decrease, requiring an improvement greater than
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
    if seed_structure is None:
        seed_structure = learn_optimal_branching(dist)
    if seed_structure.n != n:
        raise ValidationError(
            f"seed has {seed_structure.n} nodes but distribution has {n} variables"
        )
    if not is_polytree(seed_structure) or max_indegree(seed_structure) > k:
        raise ValidationError("seed structure must be a polytree with indegree <= k")

    oracle = dist.oracle
    parent_masks = [0] * n
    for child, ps in enumerate(seed_structure.parents):
        for p in ps:
            parent_masks[child] |= 1 << p
    terms = [oracle.conditional(v, parent_masks[v]) for v in range(n)]
    evaluated = 0
    applied = 0

    def current_edges() -> list[tuple[int, int]]:
        return [
            (p, c) for c in range(n) for p in range(n) if parent_masks[c] >> p & 1
        ]

    while applied < budget:
        edges = current_edges()
        indegree = [int.bit_count(parent_masks[v]) for v in range(n)]
        comp_all = _components_without_edge(n, edges, None)
        best_gain = LOCAL_IMPROVEMENT_EPS
        best_move: tuple | None = None
        best_changes: dict[int, int] | None = None

        def consider(move: tuple, changes: dict[int, int]) -> None:
            nonlocal best_gain, best_move, best_changes, evaluated
            evaluated += 1
            gain = sum(terms[v] - oracle.conditional(v, m) for v, m in changes.items())
            if gain > best_gain or (
                gain == best_gain and best_move is not None and move < best_move
            ):
                best_gain = gain
                best_move = move
                best_changes = changes

        for v in range(n):
            if indegree[v] >= k:
                continue
            for u in range(n):
                if u == v or parent_masks[v] >> u & 1 or comp_all[u] == comp_all[v]:
                    continue
                consider(("add", u, v), {v: parent_masks[v] | (1 << u)})
        for u, v in edges:
            consider(("remove", u, v), {v: parent_masks[v] & ~(1 << u)})
        for u, v in edges:
            if indegree[u] < k:
                consider(
                    ("reverse", u, v),
                    {
                        v: parent_masks[v] & ~(1 << u),
                        u: parent_masks[u] | (1 << v),
                    },
                )
        for u, v in edges:
            comp = _components_without_edge(n, edges, (u, v))
            for y in range(n):
                cap = indegree[y] - (1 if y == v else 0)
                if cap >= k:
                    continue
                mask_y = parent_masks[y] & ~(1 << u) if y == v else parent_masks[y]
                for x in range(n):
                    if x == y or (x, y) == (u, v) or mask_y >> x & 1:
                        continue
                    if comp[x] == comp[y]:
                        continue
                    changes = {v: parent_masks[v] & ~(1 << u)}
                    changes[y] = changes.get(y, parent_masks[y]) | (1 << x)
                    consider(("swap", u, v, x, y), changes)

        if best_move is None:
            break
        assert best_changes is not None
        for v, mask in best_changes.items():
            parent_masks[v] = mask
            terms[v] = oracle.conditional(v, mask)
        applied += 1
        _check_k_polytree(_structure_of(parent_masks), k)

    structure = _structure_of(parent_masks)
    best_bits = score(dist, structure).total_bits
    branching = learn_optimal_branching(dist)
    branching_bits = score(dist, branching).total_bits
    report = _finish_report(structure, best_bits, branching_bits, max(evaluated, 1))
    return report
