"""The exhaustive branching oracle the branching learner and the searches are
checked against. It enumerates n^n parent assignments, so keep n small."""

import itertools

from polytreelab.distribution import Distribution, conditional_entropy, entropy
from polytreelab.structure import Structure, UnionFind


def brute_force_branching(dist: Distribution) -> Structure:
    """Try every parent assignment with at most one parent per node and an
    acyclic skeleton, and return a minimizer of the score.

    Ties are broken toward the lexicographically smallest parent-set
    encoding, so the result is deterministic.
    """
    n = dist.n
    h_alone = [entropy(dist, (i,)) for i in range(n)]
    h_given = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                h_given[i][j] = conditional_entropy(dist, i, (j,))

    best_score = float("inf")
    best_key: tuple[tuple[int, ...], ...] | None = None
    best_choice: tuple[int, ...] | None = None
    # Parent choice per node: -1 for none, else the parent index.
    options = [[-1] + [j for j in range(n) if j != i] for i in range(n)]
    for choice in itertools.product(*options):
        uf = UnionFind(n)
        ok = True
        for child, parent in enumerate(choice):
            if parent >= 0 and not uf.union(parent, child):
                ok = False
                break
        if not ok:
            continue
        total = 0.0
        for child, parent in enumerate(choice):
            total += h_alone[child] if parent < 0 else h_given[child][parent]
        key = tuple(() if p < 0 else (p,) for p in choice)
        if total < best_score or (total == best_score and best_key is not None and key < best_key):
            best_score = total
            best_key = key
            best_choice = choice
    assert best_choice is not None
    return Structure(n, [() if p < 0 else (p,) for p in best_choice])
