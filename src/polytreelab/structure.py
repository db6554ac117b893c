"""Directed structures over a fixed variable set, and their model cost.

A structure assigns every node a set of parent nodes. The classes we care
about are both defined through the undirected skeleton:

- *polytree*: the skeleton (each directed edge kept as one undirected edge,
  multi-edges counted) is acyclic, so there are at most ``n - 1`` edges;
- *branching*: a polytree where every node has at most one parent.

The cost of a structure ``M`` for a distribution is

    score(M) = sum_i H(X_i | parents(X_i))   [bits]

which is the negative log-likelihood per sample of the best-fitting
parameters, so lower is better. The empty structure scores ``sum_i H(X_i)``
and nothing scores worse than it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distribution import Distribution, conditional_entropy
from .errors import FormatError, ValidationError, open_text


class UnionFind:
    """Disjoint sets over ``0..n-1`` with union by size."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, x: int) -> int:
        while self._parent[x] != x:
            x = self._parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True


@dataclass(frozen=True, eq=False)
class Structure:
    """Immutable parent-set assignment for ``n`` nodes."""

    n: int
    parents: tuple[frozenset[int], ...]

    def __init__(self, n: int, parents: Iterable[Iterable[int]]):
        if n < 1:
            raise ValidationError(f"a structure needs at least one node, got n={n}")
        sets = tuple(frozenset(int(p) for p in ps) for ps in parents)
        if len(sets) != n:
            raise ValidationError(f"expected {n} parent sets, got {len(sets)}")
        for child, ps in enumerate(sets):
            for p in ps:
                if not 0 <= p < n:
                    raise ValidationError(f"parent index {p} out of range for n={n}")
                if p == child:
                    raise ValidationError(f"node {child} cannot be its own parent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parents", sets)

    @staticmethod
    def empty(n: int) -> "Structure":
        return Structure(n, [()] * n)

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (parent, child), sorted."""
        return sorted((p, c) for c, ps in enumerate(self.parents) for p in ps)

    def encoding(self) -> tuple[tuple[int, ...], ...]:
        """Canonical parent-set encoding used for deterministic tie-breaking."""
        return tuple(tuple(sorted(ps)) for ps in self.parents)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Structure)
            and self.n == other.n
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return hash((self.n, self.parents))


def edge_count(structure: Structure) -> int:
    return sum(len(ps) for ps in structure.parents)


def is_polytree(structure: Structure) -> bool:
    """True when the undirected skeleton is acyclic.

    Every directed edge contributes one skeleton edge; a pair of opposite
    edges therefore counts as a two-edge cycle and is rejected. An acyclic
    skeleton on ``n`` nodes cannot hold more than ``n - 1`` edges, so the
    check also enforces that bound.
    """
    if edge_count(structure) > structure.n - 1:
        return False
    uf = UnionFind(structure.n)
    for parent, child in structure.edges():
        if not uf.union(parent, child):
            return False
    return True


def max_indegree(structure: Structure) -> int:
    return max(len(ps) for ps in structure.parents)


def is_branching(structure: Structure) -> bool:
    return max_indegree(structure) <= 1 and is_polytree(structure)


def count_sources_and_multiparents(structure: Structure) -> tuple[int, int]:
    """(number of parentless nodes, number of nodes with >= 2 parents)."""
    sources = sum(1 for ps in structure.parents if not ps)
    multi = sum(1 for ps in structure.parents if len(ps) >= 2)
    return sources, multi


def skeleton_components(structure: Structure) -> list[tuple[int, ...]]:
    """Connected components of the skeleton, each as a sorted node tuple."""
    uf = UnionFind(structure.n)
    for parent, child in structure.edges():
        uf.union(parent, child)
    groups: dict[int, list[int]] = {}
    for v in range(structure.n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def node_ordered_total(terms):
    """Sum of ``terms`` over its first axis, one float or one row of floats
    per node, added left to right in node order from 0.0. These are the
    additions of Python 3.11's ``sum(terms)``; later Pythons compensate the
    rounding of ``sum``, so every structure total is added here, and equal
    structures total the same bits in ``score`` and in the searches."""
    total = terms[0] + 0.0
    for row in terms[1:]:
        total += row
    return total


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-node conditional entropies and their total, in bits."""

    per_node_bits: tuple[float, ...]
    total_bits: float


def score(dist: Distribution, structure: Structure) -> ScoreBreakdown:
    """Model cost of ``structure`` for ``dist``: sum_i H(X_i | parents_i)."""
    if structure.n != dist.n:
        raise ValidationError(
            f"structure has {structure.n} nodes but distribution has {dist.n} variables"
        )
    per_node = tuple(
        conditional_entropy(dist, i, sorted(structure.parents[i]))
        for i in range(structure.n)
    )
    return ScoreBreakdown(per_node, float(node_ordered_total(per_node)))


def score_report_dict(dist: Distribution, structure: Structure) -> dict:
    """Score report in the documented JSON shape."""
    breakdown = score(dist, structure)
    return {
        "total_bits": breakdown.total_bits,
        "per_node": [
            {
                "name": dist.variables[i].name,
                "parents": [dist.variables[p].name for p in sorted(structure.parents[i])],
                "h_bits": breakdown.per_node_bits[i],
            }
            for i in range(structure.n)
        ],
    }


# ---------------------------------------------------------------------------
# Serialization. JSON is the canonical round-trip format; DOT is provided for
# rendering and is parsed back only in the subset this module emits.
# ---------------------------------------------------------------------------


def structure_to_json_dict(structure: Structure, names: Sequence[str]) -> dict:
    if len(names) != structure.n:
        raise ValidationError(f"expected {structure.n} names, got {len(names)}")
    return {
        "names": list(names),
        "parents": [sorted(ps) for ps in structure.parents],
    }


def structure_from_json_dict(doc: dict) -> tuple[Structure, tuple[str, ...]]:
    if not isinstance(doc, dict) or "parents" not in doc:
        raise FormatError("structure JSON needs a 'parents' list")
    parents = doc["parents"]
    if not isinstance(parents, list) or not all(
        isinstance(entry, list) and all(type(p) is int for p in entry) for entry in parents
    ):
        raise FormatError("'parents' must be a list of lists of integer indices")
    n = len(parents)
    names = doc.get("names", [f"X{i + 1}" for i in range(n)])
    if not isinstance(names, list) or len(names) != n:
        raise FormatError(f"'names' must list exactly {n} names")
    if not all(isinstance(x, str) and x for x in names):
        raise FormatError("every name must be a non-empty string")
    try:
        structure = Structure(n, parents)
    except ValidationError as exc:
        raise FormatError(f"bad structure JSON: {exc}") from None
    return structure, tuple(names)


def read_structure_json(path: str) -> tuple[Structure, tuple[str, ...]]:
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    return structure_from_json_dict(doc)


def write_structure_json(structure: Structure, names: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json_dict(structure, names), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def structure_to_dot(structure: Structure, names: Sequence[str]) -> str:
    if len(names) != structure.n:
        raise ValidationError(f"expected {structure.n} names, got {len(names)}")
    lines = ["digraph structure {"]
    for name in names:
        lines.append(f"  {_quote(name)};")
    for parent, child in structure.edges():
        lines.append(f"  {_quote(names[parent])} -> {_quote(names[child])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*;\s*$')
_DOT_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*;\s*$')


def _unquote(body: str) -> str:
    return body.replace('\\"', '"').replace("\\\\", "\\")


def structure_from_dot(text: str) -> tuple[Structure, tuple[str, ...]]:
    """Parse the DOT subset emitted by :func:`structure_to_dot`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("digraph"):
        raise FormatError("DOT input must start with a 'digraph' header")
    if lines[-1].strip() != "}":
        raise FormatError("DOT input must end with '}'")
    names: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    for ln in lines[1:-1]:
        m = _DOT_EDGE.match(ln)
        if m:
            edges.append((_unquote(m.group(1)), _unquote(m.group(2))))
            continue
        m = _DOT_NODE.match(ln)
        if m:
            name = _unquote(m.group(1))
            if name in index:
                raise FormatError(f"duplicate DOT node {name!r}")
            index[name] = len(names)
            names.append(name)
            continue
        raise FormatError(f"unsupported DOT line: {ln.strip()!r}")
    for a, b in edges:
        for name in (a, b):
            if name not in index:
                index[name] = len(names)
                names.append(name)
    parents: list[set[int]] = [set() for _ in names]
    for a, b in edges:
        parents[index[b]].add(index[a])
    try:
        structure = Structure(len(names), parents)
    except ValidationError as exc:
        raise FormatError(f"bad DOT structure: {exc}") from None
    return structure, tuple(names)


def read_structure_dot(path: str) -> tuple[Structure, tuple[str, ...]]:
    with open_text(path) as fh:
        return structure_from_dot(fh.read())


def write_structure_dot(structure: Structure, names: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(structure_to_dot(structure, names))
