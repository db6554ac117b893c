"""Independent correctness oracle for the benchmark.

Nothing here imports ``polytreelab``: entropies come from numpy over the
benchmark's own exact joints or sample rows, polytree and indegree
properties from a local union-find, the optimal branching score from a
local Chow-Liu (Kruskal) sweep, and MAXSAT counts from brute force.
Each ``check_*`` function returns a list of failure messages; an empty
list means the report passed.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

# Reports round floats to 12 significant digits; sums of up to ~20 such
# terms stay far inside this.
TOL_BITS = 1e-9
MI_FLOOR = 1e-12  # pairs at or below this mutual information are never joined


def entropy_of(p: np.ndarray) -> float:
    """Plug-in entropy in bits of a non-negative vector, normalised here."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    p = p[p > 0.0] / p.sum()
    return float(-(p * np.log2(p)).sum())


def joint_entropy_fn(table: np.ndarray) -> Callable[[tuple[int, ...]], float]:
    """H(S) over a dense joint whose axis v is variable v."""
    n = table.ndim

    def h(axes: tuple[int, ...]) -> float:
        if not axes:
            return 0.0
        drop = tuple(i for i in range(n) if i not in axes)
        return entropy_of(table.sum(axis=drop) if drop else table)

    return h


def rows_entropy_fn(rows: np.ndarray) -> Callable[[tuple[int, ...]], float]:
    """H(S) of the empirical joint of binary sample rows, from counts."""
    cols = rows.astype(np.int64)
    memo: dict[tuple[int, ...], float] = {}

    def h(axes: tuple[int, ...]) -> float:
        axes = tuple(sorted(axes))
        if not axes:
            return 0.0
        if axes not in memo:
            key = np.zeros(cols.shape[0], dtype=np.int64)
            for a in axes:
                key = key * 2 + cols[:, a]
            memo[axes] = entropy_of(np.bincount(key, minlength=1 << len(axes)))
        return memo[axes]

    return h


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def is_polytree(parents: list[list[int]]) -> bool:
    """Skeleton acyclic, each directed edge one skeleton edge."""
    uf = UnionFind(len(parents))
    return all(uf.union(p, c) for c, ps in enumerate(parents) for p in ps)


def max_indegree(parents: list[list[int]]) -> int:
    return max(len(ps) for ps in parents)


def node_bits(h, v: int, ps) -> float:
    """H(X_v | parents) = H(v, parents) - H(parents)."""
    ps = tuple(ps)
    return h(ps + (v,)) - h(ps)


def structure_bits(h, parents: list[list[int]]) -> float:
    return sum(node_bits(h, v, ps) for v, ps in enumerate(parents))


def mutual_information(h, a: int, b: int) -> float:
    return h((a,)) + h((b,)) - h((a, b))


def branching_bits(h, n: int) -> float:
    """Score of an optimal branching: sum_i H(X_i) minus the weight of a
    maximum spanning forest of pairwise mutual information."""
    edges = sorted(
        ((mutual_information(h, a, b), a, b) for a, b in itertools.combinations(range(n), 2)),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    uf = UnionFind(n)
    kept = sum(w for w, a, b in edges if w > MI_FLOOR and uf.union(a, b))
    return sum(h((v,)) for v in range(n)) - kept


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            num_vars = int(tok[2])
            continue
        lits = [int(t) for t in tok]
        clauses.append(tuple(lits[: lits.index(0)] if 0 in lits else lits))
    return num_vars, clauses


def satisfied(clauses: list[tuple[int, ...]], values) -> int:
    return sum(any((values[abs(l) - 1] == 1) == (l > 0) for l in cl) for cl in clauses)


def maxsat(num_vars: int, clauses: list[tuple[int, ...]]) -> int:
    return max(satisfied(clauses, bits) for bits in itertools.product((0, 1), repeat=num_vars))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL_BITS


def _parents_by_index(structure: dict) -> tuple[list[str], list[list[int]]]:
    return structure["names"], [list(ps) for ps in structure["parents"]]


def _check_structure(doc: dict, h, k: int, fails: list[str]) -> list[list[int]]:
    names, parents = _parents_by_index(doc["structure"])
    if names != [f"X{i + 1}" for i in range(len(names))]:
        fails.append("structure names are not X1..Xn in column order")
    if not is_polytree(parents):
        fails.append("reported structure is not a polytree")
    if max_indegree(parents) > k:
        fails.append(f"reported structure has indegree above {k}")
    per_node = doc["score"]["per_node"]
    for v, ps in enumerate(parents):
        row = per_node[v]
        if row["parents"] != [names[p] for p in ps]:
            fails.append(f"score row {v} parents disagree with the structure")
        if not _close(row["h_bits"], node_bits(h, v, ps)):
            fails.append(f"H({names[v]}|parents) {row['h_bits']} != {node_bits(h, v, ps)}")
    own = structure_bits(h, parents)
    if not _close(doc["score"]["total_bits"], own):
        fails.append(f"total_bits {doc['score']['total_bits']} != {own}")
    return parents


def check_verify_bounds(doc: dict, table: np.ndarray, generating: list[list[int]]) -> list[str]:
    fails: list[str] = []
    if doc.get("kind") != "verify-bounds":
        return [f"unexpected report kind {doc.get('kind')!r}"]
    h = joint_entropy_fn(table)
    n = table.ndim
    if doc["passed"] is not True:
        fails.append("verify-bounds reported passed=false")
    if any(b["passed"] is False for b in doc["bounds"]):
        fails.append("a bound row failed")
    if not all(r["passed"] for r in doc["subtree_checks"]):
        fails.append("a subtree charge row failed")
    exact = doc["optimal_score_bits"]
    branch = doc["branching_score_bits"]
    own_branch = branching_bits(h, n)
    if not _close(branch, own_branch):
        fails.append(f"branching_score_bits {branch} != Chow-Liu {own_branch}")
    gen_bits = structure_bits(h, generating)
    if exact > gen_bits + TOL_BITS:
        fails.append(f"exact {exact} > generating 2-polytree {gen_bits}")
    if exact > branch + TOL_BITS:
        fails.append(f"exact {exact} > branching {branch}")
    singles = [h((v,)) for v in range(n)]
    if not (_close(doc["max_node_entropy_bits"], max(singles))
            and _close(doc["min_node_entropy_bits"], min(singles))):
        fails.append("node entropy range disagrees")
    return fails


def check_learn_branching(doc: dict, rows: np.ndarray) -> list[str]:
    fails: list[str] = []
    if doc.get("kind") != "learn-branching":
        return [f"unexpected report kind {doc.get('kind')!r}"]
    h = rows_entropy_fn(rows)
    n = rows.shape[1]
    _check_structure(doc, h, 1, fails)
    own = branching_bits(h, n)
    if not _close(doc["score"]["total_bits"], own):
        fails.append(f"branching total {doc['score']['total_bits']} != Chow-Liu {own}")
    index = {f"X{i + 1}": i for i in range(n)}
    if len(doc["edges"]) != n * (n - 1) // 2:
        fails.append("edge list does not cover every pair")
    for e in doc["edges"]:
        mi = mutual_information(h, index[e["a"]], index[e["b"]])
        if not _close(e["mi_bits"], mi):
            fails.append(f"I({e['a']};{e['b']}) {e['mi_bits']} != {mi}")
    return fails


def check_heuristic_polytree(doc: dict, rows: np.ndarray, k: int) -> list[str]:
    fails: list[str] = []
    if doc.get("kind") != "heuristic-polytree":
        return [f"unexpected report kind {doc.get('kind')!r}"]
    h = rows_entropy_fn(rows)
    _check_structure(doc, h, k, fails)
    if not _close(doc["best_score_bits"], doc["score"]["total_bits"]):
        fails.append("best_score_bits differs from the score total")
    seed_bits = branching_bits(h, rows.shape[1])
    if not _close(doc["branching_score_bits"], seed_bits):
        fails.append(f"seed branching {doc['branching_score_bits']} != Chow-Liu {seed_bits}")
    if doc["best_score_bits"] > seed_bits + TOL_BITS:
        fails.append(f"heuristic {doc['best_score_bits']} worse than its seed {seed_bits}")
    return fails


def check_verify_gadget(doc: dict, num_vars: int, clauses) -> list[str]:
    fails: list[str] = []
    if doc.get("kind") != "verify-gadget":
        return [f"unexpected report kind {doc.get('kind')!r}"]
    if doc["passed"] is not True:
        fails.append("verify-gadget reported passed=false")
    for row in doc["rows"]:
        if row["passed"] is not True or not _close(row["observed_bits"], row["expected_bits"]):
            fails.append(f"gadget row {row['name']} failed")
    best = maxsat(num_vars, clauses)
    if doc["satisfied_count"] != best:
        fails.append(f"satisfied_count {doc['satisfied_count']} != MAXSAT {best}")
    if satisfied(clauses, doc["assignment"]) != best:
        fails.append("reported assignment does not reach MAXSAT")
    if doc["structure_is_polytree"] is not True or doc["structure_max_indegree"] > 2:
        fails.append("planned structure is not a 2-polytree")
    return fails


def check_gen_cnf(doc: dict, num_vars: int, clauses, csv_path: str, samples: int) -> list[str]:
    """The sampled CSV must follow the construction's deterministic wiring:
    chain node L_i is X_i's `next` bit xor X_{i+1}'s `prev` bit, and with
    blockers each satellite's high bits are A_i xor B_i."""
    fails: list[str] = []
    if doc.get("kind") != "gen" or doc.get("family") != "cnf":
        return [f"unexpected report kind {doc.get('kind')!r}"]
    if doc["num_clauses"] != len(clauses) or doc["num_variables"] != num_vars:
        fails.append("formula size disagrees")
    if not _close(doc["layer_entropy_bits"][0], 0.5 * len(clauses)):
        fails.append("clause layer is not half a bit per clause")
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    names = [node["name"] for node in doc["nodes"]]
    if header != names:
        return fails + ["CSV header differs from the reported nodes"]
    if data.shape != (samples, len(names)):
        return fails + [f"CSV shape {data.shape} != ({samples}, {len(names)})"]
    arity = np.array([node["arity"] for node in doc["nodes"]])
    if (data < 0).any() or (data >= arity).any():
        fails.append("CSV value outside its node's arity")
    col = {name: data[:, j] for j, name in enumerate(names)}
    for i in range(1, num_vars):
        expect = (col[f"X{i}"] & 1) ^ ((col[f"X{i + 1}"] >> 1) & 1)
        if not np.array_equal(col[f"L{i}"], expect):
            fails.append(f"chain L{i} is not next(X{i}) xor prev(X{i + 1})")
    if doc["include_inedge_blockers"]:
        for i in range(1, num_vars + 1):
            if not np.array_equal(col[f"R{i}"] >> 1, col[f"A{i}"] ^ col[f"B{i}"]):
                fails.append(f"satellite R{i} high bits are not A{i} xor B{i}")
    return fails


def check(call, doc: dict) -> list[str]:
    """Check the report of one ``workloads.Call`` against its context."""
    ctx = call.context
    if call.command == "verify-bounds":
        return check_verify_bounds(doc, ctx["table"], ctx["generating"])
    if call.command == "learn-branching":
        return check_learn_branching(doc, ctx["rows"])
    if call.command == "heuristic-polytree":
        return check_heuristic_polytree(doc, ctx["rows"], ctx["k"])
    if call.command == "verify-gadget":
        return check_verify_gadget(doc, ctx["num_vars"], ctx["clauses"])
    return check_gen_cnf(doc, ctx["num_vars"], ctx["clauses"], ctx["csv"], ctx["samples"])
