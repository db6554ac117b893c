"""Optimal branchings over discrete variables.

A branching (each node has at most one parent, skeleton acyclic) scores

    sum_i H(X_i | parent_i) = sum_i H(X_i) - sum_edges I(parent; child)

so minimizing the score is the same as picking a maximum-weight forest of
the pairwise mutual-information graph; the orientation of each tree is
irrelevant to the score. ``learn_optimal_branching`` does exactly that with
a deterministic Kruskal sweep over the edges (``branching_from_edges``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .distribution import Distribution, mutual_information
from .errors import ValidationError
from .structure import Structure, UnionFind

# Edge weights at or below this are treated as exactly zero and never picked;
# they cannot change the score by more than (n - 1) * OMEGA.
OMEGA = 1e-12


@dataclass(frozen=True)
class WeightedEdge:
    """Undirected pair ``a < b`` weighted by mutual information in bits."""

    a: int
    b: int
    weight: float

    def __post_init__(self) -> None:
        if not 0 <= self.a < self.b:
            raise ValidationError(f"edge endpoints must satisfy 0 <= a < b, got ({self.a}, {self.b})")
        if self.weight < 0.0:
            raise ValidationError(f"edge weight must be >= 0, got {self.weight}")


def mutual_information_edges(dist: Distribution) -> list[WeightedEdge]:
    """All pairwise mutual informations, one edge per unordered pair."""
    return [
        WeightedEdge(a, b, mutual_information(dist, a, b))
        for a, b in itertools.combinations(range(dist.n), 2)
    ]


def _orient_forest(n: int, chosen: list[tuple[int, int]]) -> Structure:
    # Orient every tree away from its minimum-index node, which makes the
    # returned branching a deterministic function of the chosen edge set.
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in chosen:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parents: list[tuple[int, ...]] = [()] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        # Every smaller node was seen, so ``root`` is its tree's minimum.
        stack = [root]
        seen[root] = True
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parents[w] = (u,)
                    stack.append(w)
    return Structure(n, parents)


def branching_from_edges(n: int, edges: Iterable[WeightedEdge]) -> Structure:
    """The maximum-weight forest of ``edges`` on ``n`` nodes, as a branching.

    Deterministic: candidate edges are sorted by (weight descending, then
    (a, b) ascending), edges with weight <= ``OMEGA`` are dropped, and each
    resulting tree is rooted at its minimum node index.
    """
    uf = UnionFind(n)
    chosen: list[tuple[int, int]] = []
    for e in sorted((e for e in edges if e.weight > OMEGA), key=lambda e: (-e.weight, e.a, e.b)):
        if uf.union(e.a, e.b):
            chosen.append((e.a, e.b))
    return _orient_forest(n, chosen)


def learn_optimal_branching(dist: Distribution) -> Structure:
    """A branching minimizing the score, learned in O(n^2 log n): the
    ``branching_from_edges`` of the pairwise mutual informations. With
    all-independent variables this returns the empty structure.
    """
    return branching_from_edges(dist.n, mutual_information_edges(dist))
