"""Seeded inputs and the op cycle of each benchmark workload.

Everything here is the benchmark's own code: instances are drawn with
numpy's PCG64 from the workload seed, written in the program's input
formats, and paired with the facts the independent checks need (the exact
joint, the generating structure, the sampled rows, the parsed formula).
The program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from oracle import parse_dimacs

EXACT_N = 7  # the program's exhaustive-search cap
EXACT_K = 2
EXACT_INSTANCES = 2
DATA_N = 18
DATA_ROWS = 100_000
DATA_K = 2
DATA_INSTANCES = 2
GADGET_SAMPLES = 50_000
WORKLOADS = ("exact-audit", "data-learn", "gadget-audit")


@dataclass
class Call:
    """One cold CLI process and what its output is checked against."""

    label: str
    command: str  # which report check applies
    args: list[str]  # CLI arguments after ``python -m polytreelab``
    inputs: list[str]  # files whose bytes determine the output
    context: dict = field(default_factory=dict)


@dataclass
class Workload:
    """``cycle`` lists the ops of one cycle; an op is the calls timed as one
    unit, back to back. The closed loop repeats whole cycles."""

    name: str
    cycle: list[list[Call]]
    sizes: dict

    @property
    def calls(self) -> list[Call]:
        return [call for op in self.cycle for call in op]


def random_polytree(rng: np.random.Generator, n: int, k: int) -> list[list[int]]:
    """Connected random polytree with indegree <= k, as parent lists.

    Node i attaches to a uniformly chosen earlier node; the edge direction is
    a fair coin, flipped when the chosen head is already full. With k >= 1
    one of the two directions always fits: the earlier node may be full, but
    node i has no parents yet.
    """
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        j = int(rng.integers(i))
        head, tail = (i, j) if rng.random() < 0.5 else (j, i)
        if len(parents[head]) >= k:
            head, tail = tail, head
        parents[head].append(tail)
    return [sorted(ps) for ps in parents]


def random_cpts(rng: np.random.Generator, parents: list[list[int]]) -> list[np.ndarray]:
    """P(X_v = 1 | parent values) per node, one entry per parent state.

    Each row is a flat Dirichlet draw over the two states, i.e. uniform.
    Entry ``s`` is indexed by the parent values in ascending node order,
    the first parent as the most significant bit.
    """
    return [rng.random(1 << len(ps)) for ps in parents]


def topological_order(parents: list[list[int]]) -> list[int]:
    n = len(parents)
    indeg = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in range(n)]
    for v, ps in enumerate(parents):
        for p in ps:
            children[p].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order


def parent_state(values: list[np.ndarray], ps: list[int]) -> np.ndarray:
    """Row index into a node's CPT from the parents' 0/1 values."""
    state = np.zeros_like(values[ps[0]]) if ps else 0
    for p in ps:
        state = state * 2 + values[p]
    return state


def exact_joint(parents: list[list[int]], cpts: list[np.ndarray]) -> np.ndarray:
    """Dense joint table, axis v for node v, as the product of conditionals."""
    n = len(parents)
    grids = list(np.indices((2,) * n))
    table = np.ones((2,) * n)
    for v, ps in enumerate(parents):
        p1 = cpts[v][parent_state(grids, ps)]
        table *= np.where(grids[v] == 1, p1, 1.0 - p1)
    return table


def sample_rows(
    rng: np.random.Generator, parents: list[list[int]], cpts: list[np.ndarray], rows: int
) -> np.ndarray:
    """Ancestral sampling: an (rows, n) uint8 array of 0/1 values."""
    n = len(parents)
    values: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for v in topological_order(parents):
        p1 = cpts[v][parent_state(values, parents[v])]
        values[v] = (rng.random(rows) < p1).astype(np.int64)
    return np.stack(values, axis=1).astype(np.uint8)


def write_distribution_json(path: str, table: np.ndarray) -> None:
    n = table.ndim
    doc = {
        "variables": [{"name": f"X{i + 1}", "arity": 2} for i in range(n)],
        "probabilities": [float(p) for p in table.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_binary_csv(path: str, rows: np.ndarray) -> None:
    """Header X1..Xn, then one line of comma-separated 0/1 values per row."""
    n_rows, n = rows.shape
    body = np.empty((n_rows, 2 * n), dtype=np.uint8)
    body[:, 0::2] = rows + ord("0")
    body[:, 1::2] = ord(",")
    body[:, -1] = ord("\n")
    header = ",".join(f"X{i + 1}" for i in range(n)) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(body.tobytes())


def build_exact_audit(rng: np.random.Generator, work: str) -> Workload:
    # One op audits every instance in turn. A single ~3 s call sits inside
    # one phase of the host's speed, which alternates between fast and ~1.5x
    # slower phases lasting 10-20 s, so single-call times are bimodal and
    # their median flips between the modes from run to run.
    calls = []
    for i in range(EXACT_INSTANCES):
        parents = random_polytree(rng, EXACT_N, EXACT_K)
        table = exact_joint(parents, random_cpts(rng, parents))
        path = os.path.join(work, f"exact{i}.json")
        write_distribution_json(path, table)
        calls.append(
            Call(
                label=f"verify-bounds#{i}",
                command="verify-bounds",
                args=["verify-bounds", "--dist", path, "--k", str(EXACT_K), "--jobs", "1"],
                inputs=[path],
                context={"table": table, "generating": parents},
            )
        )
    states = 1 << EXACT_N
    return Workload(
        "exact-audit",
        [calls],
        {"n": EXACT_N, "k": EXACT_K, "rows": 0, "joint_states": states,
         "table_bytes": states * 8, "instances": EXACT_INSTANCES},
    )


def build_data_learn(rng: np.random.Generator, work: str) -> Workload:
    ops = []
    for i in range(DATA_INSTANCES):
        parents = random_polytree(rng, DATA_N, DATA_K)
        rows = sample_rows(rng, parents, random_cpts(rng, parents), DATA_ROWS)
        path = os.path.join(work, f"data{i}.csv")
        write_binary_csv(path, rows)
        ctx = {"rows": rows}
        # One op learns both structures from one dataset. Timing the two
        # calls apart would make the median of a 50/50 mix of ~2 s and
        # ~3 s calls fall between the modes, where it jumps run to run.
        ops.append([
            Call(f"learn-branching#{i}", "learn-branching",
                 ["learn-branching", "--data", path], [path], ctx),
            Call(f"heuristic-polytree#{i}", "heuristic-polytree",
                 ["heuristic-polytree", "--data", path, "--k", str(DATA_K)],
                 [path], {**ctx, "k": DATA_K}),
        ])
    states = 1 << DATA_N
    return Workload(
        "data-learn",
        ops,
        {"n": DATA_N, "k": DATA_K, "rows": DATA_ROWS, "joint_states": states,
         "table_bytes": states * 8, "instances": DATA_INSTANCES},
    )


def build_gadget_audit(rng: np.random.Generator, work: str, corpus: str) -> Workload:
    ops = []
    names = sorted(f for f in os.listdir(corpus) if f.endswith(".cnf"))
    gen_seed = int(rng.integers(1 << 31))
    for fname in names:
        with open(os.path.join(corpus, fname), encoding="utf-8") as fh:
            text = fh.read()
        path = os.path.join(work, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        num_vars, clauses = parse_dimacs(text)
        ctx = {"num_vars": num_vars, "clauses": clauses}
        stem = fname[:-4]
        ops.append([Call(f"verify-gadget:{stem}", "verify-gadget",
                         ["verify-gadget", path], [path], ctx)])
        ops.append([Call(f"verify-gadget:{stem}+blockers", "verify-gadget",
                         ["verify-gadget", path, "--blockers"], [path], ctx)])
        out = os.path.join(work, f"{stem}.samples.csv")
        ops.append([Call(f"gen-cnf:{stem}", "gen-cnf",
                         ["gen", "cnf", path, "--blockers", "--samples", str(GADGET_SAMPLES),
                          "--seed", str(gen_seed), "--out", out],
                         [path], {**ctx, "csv": out, "samples": GADGET_SAMPLES})])
    order = rng.permutation(len(ops))
    return Workload(
        "gadget-audit",
        [ops[i] for i in order],
        {"n": None, "k": 2, "rows": GADGET_SAMPLES, "joint_states": None,
         "table_bytes": None, "formulas": len(names)},
    )


def build(name: str, seed: int, work: str, corpus: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    rng = np.random.Generator(np.random.PCG64([WORKLOADS.index(name), seed]))
    if name == "exact-audit":
        return build_exact_audit(rng, work)
    if name == "data-learn":
        return build_data_learn(rng, work)
    return build_gadget_audit(rng, work, corpus)
