"""Exact and heuristic search for low-cost polytrees.

``exact_optimal_polytree`` enumerates every polytree (optionally with an
indegree bound ``k``) and returns a global minimizer of the score. The walk
is: every acyclic subset of the n(n-1)/2 undirected edges, discovered in
increasing edge-count order with union-find rejection of cycles, then every
orientation of each forest via a Gray-code sweep that touches one edge per
step. Candidates violating the indegree bound are skipped. Ties are broken
toward the lexicographically smallest parent-set encoding, so results are
deterministic, including under ``jobs > 1`` (the edge-subset space is
partitioned by the smallest included edge and partial results are merged in
a fixed order).

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

from .branching import learn_optimal_branching
from .distribution import Distribution, EntropyOracle
from .errors import CapExceededError, ValidationError
from .structure import Structure, UnionFind, is_polytree, max_indegree, score

EXACT_MAX_NODES = 7
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
        best.offer(sum(terms), parent_mask, n)
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
            best.offer(sum(terms), parent_mask, n)
    return scored


def _enumerate_with_first_edge(dist: Distribution, k: int, first: int) -> tuple[int, _Best]:
    """Walk every forest whose smallest included edge index equals ``first``."""
    n = dist.n
    pairs = _all_pairs(n)
    oracle = dist.oracle
    best = _Best()
    uf = UnionFind(n)
    chosen: list[tuple[int, int]] = []
    counter = 0

    def extend(next_index: int) -> None:
        nonlocal counter
        counter += _scan_orientations(chosen, oracle, k, n, best)
        for idx in range(next_index, len(pairs)):
            a, b = pairs[idx]
            record = uf.union(a, b)
            if record is None:
                continue
            chosen.append((a, b))
            extend(idx + 1)
            chosen.pop()
            uf.undo(record)

    uf.union(*pairs[first])
    chosen.append(pairs[first])
    extend(first + 1)
    return counter, best


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
    best = _Best()
    # The empty forest is every task's common ancestor; score it once here.
    empty_masks = [0] * n
    best.offer(sum(dist.oracle.conditional(v, 0) for v in range(n)), empty_masks, n)
    enumerated = 1

    tasks = range(len(pairs))
    if jobs == 1 or len(tasks) <= 1:
        results = [_enumerate_with_first_edge(dist, k_eff, first) for first in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_enumerate_with_first_edge, repeat(dist), repeat(k_eff), tasks))
    for counter, partial in results:
        enumerated += counter
        best.merge(partial)

    assert best.parents is not None
    parents = [tuple(i for i in range(n) if best.parents[v] >> i & 1) for v in range(n)]
    structure = Structure(n, parents)
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
        # Every accepted move must preserve the search invariant.
        snapshot = Structure(
            n, [tuple(i for i in range(n) if parent_masks[v] >> i & 1) for v in range(n)]
        )
        assert is_polytree(snapshot) and max_indegree(snapshot) <= k

    structure = Structure(
        n, [tuple(i for i in range(n) if parent_masks[v] >> i & 1) for v in range(n)]
    )
    best_bits = score(dist, structure).total_bits
    branching = learn_optimal_branching(dist)
    branching_bits = score(dist, branching).total_bits
    report = _finish_report(structure, best_bits, branching_bits, max(evaluated, 1))
    return report
