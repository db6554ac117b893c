"""Instance generators: parity fixtures, the XOR tree family, and seeded
random polytree instances.

The XOR tree family is the adversarial input for branching learners: a
complete binary tree of binary variables with all edges pointing toward the
root, leaves drawn independently with a chosen entropy ``eps``, and every
internal node the exclusive-or of its two parents. The generating polytree
scores ``(number of leaves) * eps``, the joint entropy, which no structure
scores below, so it is optimal. Pairwise mutual informations decay with
distance, so a branching gives up roughly ``eps`` per tree level and the
best-branching to best-polytree ratio grows with the depth; at ``eps = 1``
every pair is independent and the ratio is ``2n / (n + 1)`` on ``n`` nodes,
rising toward 2.
"""

from __future__ import annotations

import random
from typing import Sequence

from .distribution import (
    DEFAULT_STATE_CAP,
    Distribution,
    VariableMeta,
    _check_state_cap,
    bernoulli_bias_for_entropy,
)
from .errors import ValidationError, lazy_import
from .structure import Structure, is_polytree

np = lazy_import("numpy")

PARITY_FIXTURES = ("parity2", "parity3")


def joint_from_conditionals(
    variables: Sequence[VariableMeta],
    structure: Structure,
    cpts: Sequence[np.ndarray],
    *,
    max_states: int = DEFAULT_STATE_CAP,
) -> Distribution:
    """Exact joint of a polytree model: the product of its conditionals.

    ``cpts[i]`` has shape ``(arity of each parent in ascending index order
    ..., arity of i)`` and every row sums to 1.
    """
    metas = tuple(variables)
    if structure.n != len(metas):
        raise ValidationError(f"structure has {structure.n} nodes, got {len(metas)} variables")
    if not is_polytree(structure):
        raise ValidationError("joint_from_conditionals expects a polytree structure")
    shape = tuple(m.arity for m in metas)
    _check_state_cap(shape, max_states)
    n = len(metas)
    table = np.ones(shape, dtype=np.float64)
    for i in range(n):
        axes_vars = (*structure.parents[i], i)
        expect = tuple(metas[v].arity for v in axes_vars)
        cpt = np.asarray(cpts[i], dtype=np.float64)
        if cpt.shape != expect:
            raise ValidationError(
                f"cpt for node {i} has shape {cpt.shape}, expected {expect}"
            )
        sums = cpt.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValidationError(f"cpt rows for node {i} must each sum to 1")
        if cpt.min(initial=0.0) < 0.0:
            raise ValidationError(f"cpt for node {i} has negative entries")
        # Broadcast the cpt over the full joint shape: its axes sit at the
        # variable positions, every other axis has extent one.
        order = sorted(range(len(axes_vars)), key=lambda j: axes_vars[j])
        aligned = np.transpose(cpt, order)
        full_shape = [1] * n
        for v in axes_vars:
            full_shape[v] = metas[v].arity
        table = table * aligned.reshape(full_shape)
    return Distribution(metas, table, max_states=max_states)


def _xor_cpt(parents: int) -> np.ndarray:
    """Conditional table of a binary node that is the xor of its ``parents``
    binary parents, shaped for ``joint_from_conditionals``."""
    parity = np.indices((2,) * parents).sum(axis=0) % 2
    return (parity[..., None] == np.arange(2)).astype(np.float64)


def parity_fixture(name: str) -> tuple[Distribution, Structure]:
    """Small parity distributions that defeat pairwise-score learners.

    ``parity2``: X1 = X2 xor X3 with X2, X3 fair and independent.
    ``parity3``: X1 = X2 xor X3 xor X4. All pairs are independent, so any
    branching is stuck at the empty-structure score, while the three-parent
    polytree saves a full bit.

    Returns the distribution and its generating structure.
    """
    if name not in PARITY_FIXTURES:
        raise ValidationError(f"unknown fixture {name!r}, expected one of {PARITY_FIXTURES}")
    sources = 2 if name == "parity2" else 3
    n = sources + 1
    metas = [VariableMeta(f"X{i + 1}", 2) for i in range(n)]
    structure = Structure(n, [tuple(range(1, n))] + [()] * sources)
    cpts = [_xor_cpt(sources)] + [np.full(2, 0.5)] * sources
    return joint_from_conditionals(metas, structure, cpts), structure


def xor_tree_family(
    depth: int,
    eps: float,
    *,
    max_states: int = DEFAULT_STATE_CAP,
) -> tuple[Distribution, Structure]:
    """Complete-binary-tree XOR instance of the given depth.

    Nodes are laid out heap-style: node 0 is the root (the single sink),
    node ``i`` has parents ``2i+1`` and ``2i+2``, and the ``2**depth``
    leaves are independent Bernoulli sources whose bias is solved so each
    has entropy ``eps``. Internal nodes are the xor of their two parents,
    so the generating polytree scores exactly ``2**depth * eps``.

    The joint is a dense table over all ``2**(depth+1) - 1`` binary
    variables; depths above 3 exceed the default state cap and are refused.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must be in (0, 1], got {eps}")
    n = 2 ** (depth + 1) - 1
    first_leaf = 2**depth - 1
    bias = bernoulli_bias_for_entropy(eps)
    metas = [VariableMeta(f"n{i}", 2) for i in range(n)]
    parents: list[tuple[int, ...]] = []
    for i in range(n):
        parents.append((2 * i + 1, 2 * i + 2) if i < first_leaf else ())
    structure = Structure(n, parents)
    leaf_cpt = np.array([1.0 - bias, bias], dtype=np.float64)
    cpts = [_xor_cpt(2) if i < first_leaf else leaf_cpt for i in range(n)]
    dist = joint_from_conditionals(metas, structure, cpts, max_states=max_states)
    return dist, structure


def random_joint_distribution(
    arities: Sequence[int],
    seed: int,
    *,
    max_states: int = DEFAULT_STATE_CAP,
) -> Distribution:
    """Dense joint with probabilities drawn from a flat Dirichlet (i.i.d.
    exponential draws, normalized). Deterministic in ``seed``."""
    rng = random.Random(seed)
    metas = [VariableMeta(f"X{i + 1}", int(a)) for i, a in enumerate(arities)]
    size = 1
    for a in arities:
        size *= int(a)
    draws = np.array([rng.expovariate(1.0) for _ in range(size)], dtype=np.float64)
    return Distribution(metas, draws / draws.sum(), max_states=max_states)


def random_polytree_instance(
    n: int,
    k: int,
    arity: int | Sequence[int] = 2,
    seed: int = 0,
    *,
    edge_prob: float = 0.9,
    max_states: int = DEFAULT_STATE_CAP,
) -> tuple[Distribution, Structure]:
    """Seeded random k-polytree with Dirichlet-style conditional tables.

    The skeleton attaches each node to an earlier one with probability
    ``edge_prob``; orientations are random but never exceed indegree ``k``
    (an edge whose both directions are full is dropped). Every conditional
    row is sampled by normalizing i.i.d. exponential draws, which is a flat
    Dirichlet. The same seed always reproduces the same instance.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    arities = [arity] * n if isinstance(arity, int) else [int(a) for a in arity]
    if len(arities) != n:
        raise ValidationError(f"expected {n} arities, got {len(arities)}")
    rng = random.Random(seed)
    parents: list[set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for i in range(1, n):
        if rng.random() >= edge_prob:
            continue
        j = rng.randrange(i)
        head, tail = (i, j) if rng.random() < 0.5 else (j, i)
        if indegree[head] >= k:
            head, tail = tail, head
        if indegree[head] >= k:
            continue
        parents[head].add(tail)
        indegree[head] += 1
    structure = Structure(n, parents)
    metas = [VariableMeta(f"X{i + 1}", arities[i]) for i in range(n)]
    cpts = []
    for i in range(n):
        ps = structure.parents[i]
        shape = tuple(arities[p] for p in ps) + (arities[i],)
        rows = int(np.prod(shape[:-1], dtype=np.int64)) if ps else 1
        draws = np.array(
            [[rng.expovariate(1.0) for _ in range(arities[i])] for _ in range(rows)],
            dtype=np.float64,
        )
        draws /= draws.sum(axis=1, keepdims=True)
        cpts.append(draws.reshape(shape))
    dist = joint_from_conditionals(metas, structure, cpts, max_states=max_states)
    return dist, structure
