"""CNF-to-distribution compiler: the three-layer hardness construction.

Given a restricted CNF (see :mod:`polytreelab.cnf`), build a layered
network of discrete variables whose optimal polytree score encodes the
maximum number of simultaneously satisfiable clauses:

* layer 1: one binary node per clause, an independent coin of bias ``p``
  chosen so its entropy is exactly half a bit;
* layer 2, per CNF variable: a fair satellite coin ``R`` and a principal
  16-state node ``X`` packing four bits ``(g1, g2, P, N)``. ``P`` and ``N``
  are fresh fair coins. The gadget bits tie ``X`` to the three clauses the
  variable occurs in: with ``Ca, Cb`` the two same-polarity occurrence
  clauses and ``Cc`` the remaining one, ``g1 = Ca xor Cb`` and
  ``g2 = R xor Cc xor W`` where ``W`` is one extra private coin of bias
  ``p``. No wiring of the gadget bits over the six visible ancestor coins
  alone reproduces the required conditional-entropy table, so the wiring is
  widened by this one private coin (the test suite re-derives that
  impossibility by enumeration);
* layer 3: chain nodes, the ``i``-th valued ``N_i xor P_{i+1}``, which glue
  consecutive principals into one connected skeleton.

Conditioning a principal node on subsets of its neighbours lowers its
entropy by exactly ``delta = 1 - H(2p(1-p))`` for ``{R}``, half a bit for
``{R, C}``, ``1 - delta`` for the same-polarity clause pair, and
``1/2 - delta`` for mixed clause pairs. Summed over an assignment
satisfying ``m'`` clauses, the second layer's score drops by
``m' (1/2 - delta) + n delta``, which is what makes optimal polytree
recovery as hard as maximising satisfied clauses.

Optionally each satellite is shielded by two blocker nodes ``A`` and ``B``
(``k`` i.i.d. coins of bias ``q`` each) and expands to the tuple
``(R, A1 xor B1, ..., Ak xor Bk)``; the build asserts
``k (H(2q(1-q)) - H(q)) > 1`` so that adopting both blockers as parents is
the only attractive option. This expansion is off by default.

Each node is its XOR bit rows: ``CompiledGadget._build_nodes`` gives
every node ``rows``, where bit ``t`` of its value is the XOR of the coins
named in ``rows[t]``, and its closed-form entropy in one place. The oracle
and the sampler both evaluate a node through ``GadgetNode.value``, and the
audit only reads the closed forms.

Full joints over all coins are astronomically large, so the compiled
object is a sampler plus an exact ``EntropyOracle`` (``oracle``) whose
backend enumerates only the ancestor coins of the queried nodes, in
ascending node order. The ``c`` coins of a query span a broadcast grid of
``2^c`` cells: each coin is a two-cell view on its own axis, each node's
value is computed over its own coins and broadcast into one full-size key,
and only the key and the cell probabilities take ``2^c`` entries. The
probabilities are the same left-to-right products, summed in the same flat
order, as an enumeration with a full bit array per coin, so the entropies
carry the same bits. Queries over more than ``ENTROPY_QUERY_MAX_COINS``
coins are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterator, Mapping, Sequence

import numpy as np

from .cnf import CnfFormula, best_assignment, satisfied_clauses
from .distribution import (
    CSV_WRITE_BLOCK_ROWS,
    Dataset,
    EntropyOracle,
    VariableMeta,
    _entropy_of_flat,
    _round_off,
    bernoulli_bias_for_entropy,
    binary_entropy_bits,
    row_dtype,
)
from .errors import CapExceededError, InvariantError, ValidationError, check_tolerance
from .structure import Structure, is_polytree, max_indegree

ENTROPY_QUERY_MAX_COINS = 20
DEFAULT_CLAUSE_BIAS = bernoulli_bias_for_entropy(0.5)
DEFAULT_BLOCKER_COPIES = 5


@dataclass(frozen=True)
class GadgetParams:
    """Knobs of the construction.

    ``clause_bias`` is a constant, not a knob: the bias ``p`` below one half
    whose coin carries exactly half a bit of entropy, ``DEFAULT_CLAUSE_BIAS``
    for every gadget. ``xor_bias = 2p(1-p)`` and ``delta_bits =
    1 - H(2p(1-p))`` are constants derived from it. Blockers are the
    optional satellite shield; when enabled, ``blocker_bias`` defaults to
    ``p`` and ``blocker_copies`` to 5, and the information constraint
    ``k (H(2q(1-q)) - H(q)) > 1`` is asserted.
    """

    clause_bias: ClassVar[float] = DEFAULT_CLAUSE_BIAS
    xor_bias: ClassVar[float] = 2 * clause_bias * (1 - clause_bias)
    delta_bits: ClassVar[float] = 1.0 - binary_entropy_bits(xor_bias)
    include_inedge_blockers: bool = False
    blocker_bias: float | None = None
    blocker_copies: int | None = None

    def __post_init__(self) -> None:
        if self.include_inedge_blockers:
            q = self.effective_blocker_bias
            k = self.effective_blocker_copies
            if not 0.0 < q < 0.5:
                raise ValidationError(f"blocker_bias must be in (0, 0.5), got {q}")
            if k < 1:
                raise ValidationError(f"blocker_copies must be >= 1, got {k}")
            margin = k * (binary_entropy_bits(2 * q * (1 - q)) - binary_entropy_bits(q))
            if margin <= 1.0:
                raise ValidationError(
                    "blocker parameters too weak: need "
                    f"k*(H(2q(1-q)) - H(q)) > 1, got {margin:.6f}"
                )
        elif self.blocker_bias is not None or self.blocker_copies is not None:
            raise ValidationError(
                "blocker_bias/blocker_copies require include_inedge_blockers"
            )

    @property
    def effective_blocker_bias(self) -> float:
        q = self.blocker_bias
        return self.clause_bias if q is None else q

    @property
    def effective_blocker_copies(self) -> int:
        k = self.blocker_copies
        return DEFAULT_BLOCKER_COPIES if k is None else int(k)


@dataclass(frozen=True)
class GadgetNode:
    """One network node as XOR bit rows over independent coins.

    Bit ``t`` of the node's value is the XOR of the coins named in
    ``rows[t]``; ``analytic_bits`` is its closed-form entropy. Both are set
    in ``CompiledGadget._build_nodes``, the one place each node's rule is
    written, and ``arity`` and ``coins`` (the coins of the rows, in
    first-seen order) follow from the rows.
    """

    name: str
    layer: int
    rows: tuple[tuple[str, ...], ...]
    analytic_bits: float

    @cached_property
    def arity(self) -> int:
        return 1 << len(self.rows)

    @cached_property
    def coins(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(coin for row in self.rows for coin in row))

    def value(self, bits: Mapping[str, np.ndarray]) -> np.ndarray:
        """The node's int64 values from its coins' bits, looked up by coin
        name as 0/1 arrays that broadcast against each other, in their
        broadcast shape. Each row is cast to int64 once, after its XOR."""
        total = None
        for row in reversed(self.rows):
            bit = bits[row[0]]
            for coin in row[1:]:
                bit = bit ^ bits[coin]
            bit = bit.astype(np.int64, copy=False)
            total = bit if total is None else 2 * total + bit
        return total


@dataclass(frozen=True)
class SatisfyingPlan:
    """A structure candidate derived from a CNF assignment.

    ``allocation`` maps each satisfied clause index to the variable whose
    principal node adopts that clause node as a parent: the smallest
    variable whose literal satisfies the clause. So every satisfied clause
    is hosted exactly once, and a variable hosts only clauses its assigned
    polarity occurs in, at most two.
    """

    assignment: tuple[int, ...]
    satisfied_count: int
    allocation: dict[int, int]
    structure: Structure


@dataclass(frozen=True)
class GadgetCheckRow:
    name: str
    observed_bits: float
    expected_bits: float
    passed: bool


@dataclass(frozen=True)
class GadgetAudit:
    """Outcome of auditing a compiled gadget against its analytic targets."""

    rows: tuple[GadgetCheckRow, ...]
    assignment: tuple[int, ...]
    satisfied_count: int
    observed_drop_bits: float
    expected_drop_bits: float
    structure_is_polytree: bool
    structure_max_indegree: int

    @property
    def ok(self) -> bool:
        return (
            all(row.passed for row in self.rows)
            and self.structure_is_polytree
            and self.structure_max_indegree <= 2
        )


class CompiledGadget:
    """Layered sampler with exact small-scope entropy queries.

    Like a ``Distribution`` it is an entropy source: ``n``, ``variables`` and
    ``oracle`` are all that the searches, the branching learner and ``score``
    read, so they take a compiled gadget as it is.
    """

    def __init__(self, formula: CnfFormula, params: GadgetParams = GadgetParams()):
        self.formula = formula
        self.params = params
        self.coin_biases: dict[str, float] = {}
        self.nodes: tuple[GadgetNode, ...] = tuple(self._build_nodes())
        self._index_by_name = {node.name: i for i, node in enumerate(self.nodes)}
        self.oracle = EntropyOracle(self._coin_entropy)

    def _build_nodes(self) -> Iterator[GadgetNode]:
        """Every node with its bit rows and closed-form entropy.

        Coins are created in the order of their slices of the sampler's
        stream: with ``N`` rows, coin ``i`` takes draws ``i*N .. (i+1)*N - 1``
        of one PCG64 stream, and in ``sample_blocks`` each coin draws from
        its own generator, started at draw ``i*N``.
        """
        p = self.params.clause_bias
        q = self.params.effective_blocker_bias
        k = self.params.effective_blocker_copies

        def coin(name: str, bias: float) -> str:
            self.coin_biases[name] = bias
            return name

        for j in range(1, self.formula.num_clauses + 1):
            yield GadgetNode(f"C{j}", 1, ((coin(f"c{j}", p),),), binary_entropy_bits(p))
        for i in range(1, self.formula.num_vars + 1):
            if self.params.include_inedge_blockers:
                # Blocker bit t-1 is its coin t; satellite bit t is a_t xor b_t.
                a_coins = tuple(coin(f"a{i}_{t}", q) for t in range(1, k + 1))
                b_coins = tuple(coin(f"b{i}_{t}", q) for t in range(1, k + 1))
                for name, cs in ((f"A{i}", a_coins), (f"B{i}", b_coins)):
                    yield GadgetNode(
                        name, 2, tuple((c,) for c in cs), k * binary_entropy_bits(q)
                    )
                yield GadgetNode(
                    f"R{i}", 2, ((coin(f"r{i}", 0.5),),) + tuple(zip(a_coins, b_coins)),
                    1.0 + k * binary_entropy_bits(2 * q * (1 - q)),
                )
            else:
                yield GadgetNode(f"R{i}", 2, ((coin(f"r{i}", 0.5),),), 1.0)
            (a, _), (b, _), (c, _) = self.formula.occurrences(i)
            w, prev, nxt = coin(f"w{i}", p), coin(f"prev{i}", 0.5), coin(f"next{i}", 0.5)
            # Principal: (next, prev, r xor cc xor w, ca xor cb), low bit first.
            yield GadgetNode(
                f"X{i}", 2,
                ((nxt,), (prev,), (f"r{i}", f"c{c + 1}", w), (f"c{a + 1}", f"c{b + 1}")),
                binary_entropy_bits(self.params.xor_bias) + 3.0,
            )
        for i in range(1, self.formula.num_vars):
            yield GadgetNode(f"L{i}", 3, ((f"next{i}", f"prev{i + 1}"),), 1.0)

    # -- lookups ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    @property
    def variables(self) -> tuple[VariableMeta, ...]:
        return tuple(VariableMeta(node.name, node.arity) for node in self.nodes)

    def _index(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise ValidationError(f"unknown gadget node {name!r}") from None

    def node(self, name: str) -> GadgetNode:
        return self.nodes[self._index(name)]

    # -- exact entropy queries -------------------------------------------

    def _coin_entropy(self, mask: int) -> float:
        """Oracle backend: joint entropy of the nodes in ``mask``, taken in
        ascending node order, by enumerating only their ancestor coins.

        The ``c`` coins, sorted by name, span a grid of ``2^c`` cells whose
        C-order flat index holds coin ``pos`` at bit ``pos``. Coin ``pos`` is
        the two-cell view ``[0, 1]`` on axis ``c - 1 - pos``, so each node's
        value is computed over its own coins only and broadcast into the one
        full-size key. The probabilities grow coin by coin in sorted order,
        each cell a left-to-right product of its coins' factors, and
        ``np.bincount`` sums them in flat-index order: cell values and
        summation order match a walk over the flat index with a full bit
        array per coin, so every entropy keeps its bits.
        """
        node_list = [node for i, node in enumerate(self.nodes) if mask >> i & 1]
        coin_names = sorted({c for node in node_list for c in node.coins})
        c = len(coin_names)
        if c > ENTROPY_QUERY_MAX_COINS:
            raise CapExceededError(
                f"entropy query spans {c} coins, cap is {ENTROPY_QUERY_MAX_COINS}",
                constraint="entropy_query_max_coins",
            )
        probs = np.ones(1)
        for name in coin_names:
            bias = self.coin_biases[name]
            probs = np.concatenate((probs * (1.0 - bias), probs * bias))
        bits = {
            name: np.arange(2).reshape((1,) * (c - 1 - pos) + (2,) + (1,) * pos)
            for pos, name in enumerate(coin_names)
        }
        key = np.zeros((2,) * c, dtype=np.int64)
        radix = 1
        for node in node_list:
            key += node.value(bits) * radix
            radix *= node.arity
        return _entropy_of_flat(np.bincount(key.ravel(), weights=probs, minlength=radix))

    def _mask(self, names: Sequence[str]) -> int:
        return sum({1 << self._index(name) for name in names})

    def joint_entropy_bits(self, names: Sequence[str]) -> float:
        """Exact joint entropy of the named nodes, in bits.

        Enumerates only the union of their ancestor coins; refuses queries
        whose coin scope exceeds ``ENTROPY_QUERY_MAX_COINS``.
        """
        return self.oracle.h(self._mask(names))

    def conditional_entropy_bits(self, target: str, given: Sequence[str]) -> float:
        given = list(given)
        if target in given:
            raise ValidationError(f"target {target!r} also appears in the given set")
        joint = self.joint_entropy_bits([target] + given)
        return _round_off(joint - self.joint_entropy_bits(given), "conditional entropy")

    def entropy_decrease_bits(self, target: str, given: Sequence[str]) -> float:
        """How much conditioning on ``given`` lowers the target's entropy."""
        return self.joint_entropy_bits([target]) - self.conditional_entropy_bits(
            target, given
        )

    # -- analytic targets and metadata -------------------------------------

    def _layer_totals(
        self, node_bits: Callable[[GadgetNode], float]
    ) -> tuple[float, float, float]:
        """Per-layer totals of ``node_bits(node)``, added in node order."""
        totals = [0.0, 0.0, 0.0]
        for node in self.nodes:
            totals[node.layer - 1] += node_bits(node)
        return tuple(totals)  # type: ignore[return-value]

    def layer_entropy_bits(self) -> tuple[float, float, float]:
        """Per-layer totals of exact per-node entropies."""
        return self._layer_totals(lambda node: self.joint_entropy_bits([node.name]))

    def analytic_layer_entropy_bits(self) -> tuple[float, float, float]:
        return self._layer_totals(lambda node: node.analytic_bits)

    def metadata(self) -> dict:
        layers = self.layer_entropy_bits()
        return {
            "num_clauses": self.formula.num_clauses,
            "num_variables": self.formula.num_vars,
            "clause_bias": self.params.clause_bias,
            "delta_bits": self.params.delta_bits,
            "include_inedge_blockers": self.params.include_inedge_blockers,
            "layer_entropy_bits": [layers[0], layers[1], layers[2]],
        }

    # -- sampling -----------------------------------------------------------

    def sample_blocks(self, num_rows: int, seed: int) -> Iterator[np.ndarray]:
        """Draw i.i.d. joint samples of every node, in node order, as
        consecutive ``(rows, n)`` blocks of at most ``CSV_WRITE_BLOCK_ROWS``
        rows in the dataset's narrow ``row_dtype``.

        The draws are those of one PCG64 stream seeded with ``seed`` that
        takes one uniform vector of ``num_rows`` draws per coin, in creation
        order: coin ``i`` takes draws ``i*num_rows .. (i+1)*num_rows - 1``,
        and is 1 where its draw is below its bias. Each coin draws from its
        own generator, started at draw ``i*num_rows``, and each block takes
        its next rows from every coin's generator, so the samples do not
        depend on the block size. The arguments are checked and the
        generators started here, before the first block is asked for; each
        node's values are checked against ``0..arity-1`` before they are
        narrowed into its column.
        """
        if num_rows < 1:
            raise ValidationError(f"num_rows must be >= 1, got {num_rows}")
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        coins = [
            (name, bias, np.random.Generator(np.random.PCG64(seed).advance(i * num_rows)))
            for i, (name, bias) in enumerate(self.coin_biases.items())
        ]
        dtype = row_dtype(self.variables)

        def block(size: int) -> np.ndarray:
            bits = {name: rng.random(size) < bias for name, bias, rng in coins}
            rows = np.empty((size, self.n), dtype=dtype)
            for j, node in enumerate(self.nodes):
                values = node.value(bits)
                if values.min() < 0 or values.max() >= node.arity:
                    raise InvariantError(
                        f"node {node.name} sampled a value outside 0..{node.arity - 1}"
                    )
                rows[:, j] = values
            return rows

        return (
            block(min(CSV_WRITE_BLOCK_ROWS, num_rows - lo))
            for lo in range(0, num_rows, CSV_WRITE_BLOCK_ROWS)
        )

    def sample_dataset(self, num_rows: int, seed: int) -> Dataset:
        """The rows of ``sample_blocks`` as one ``Dataset``."""
        return Dataset(self.variables, np.concatenate(tuple(self.sample_blocks(num_rows, seed))))

    # -- assignment-derived structures ---------------------------------------

    def plan_for_assignment(
        self, assignment: Sequence[int] | None = None
    ) -> SatisfyingPlan:
        """Clause allocation and the polytree it induces.

        Each satisfied clause node becomes a parent of the principal node of
        its smallest satisfying variable; principals hosting one clause also
        adopt their satellite, principals hosting none adopt only the
        satellite. Chain nodes always adopt both adjacent principals.
        """
        formula = self.formula
        if assignment is None:
            assignment, _ = best_assignment(formula)
        values = tuple(int(v) for v in assignment)
        # Validates the assignment before it is read below.
        satisfied = satisfied_clauses(formula, values)
        allocation: dict[int, int] = {}
        for j, clause in enumerate(formula.clauses):
            satisfying = [abs(lit) for lit in clause if (values[abs(lit) - 1] == 1) == (lit > 0)]
            if satisfying:
                allocation[j] = min(satisfying)
        index = self._index_by_name
        parents: list[tuple[int, ...]] = [()] * self.n
        blockers = self.params.include_inedge_blockers
        for i in range(1, formula.num_vars + 1):
            if blockers:
                parents[index[f"R{i}"]] = (index[f"A{i}"], index[f"B{i}"])
            hosted = [j for j, host in allocation.items() if host == i]
            if len(hosted) == 2:
                chosen = tuple(index[f"C{j + 1}"] for j in hosted)
            elif len(hosted) == 1:
                chosen = (index[f"R{i}"], index[f"C{hosted[0] + 1}"])
            else:
                chosen = (index[f"R{i}"],)
            parents[index[f"X{i}"]] = chosen
        for i in range(1, formula.num_vars):
            parents[index[f"L{i}"]] = (index[f"X{i}"], index[f"X{i + 1}"])
        return SatisfyingPlan(
            assignment=values,
            satisfied_count=satisfied,
            allocation=allocation,
            structure=Structure(self.n, parents),
        )


def verify_gadget(
    compiled: CompiledGadget,
    assignment: Sequence[int] | None = None,
    *,
    tolerance_bits: float = 1e-9,
) -> GadgetAudit:
    """Audit a compiled gadget against every analytic target it must hit.

    Checks, all by exact enumeration over ancestor coins: per-node
    entropies against their closed forms, the full conditional-decrease
    table of every principal node, zero residual of every chain node given
    its two principals, per-layer entropy totals, and the score drop of the
    assignment-induced structure against ``m' (1/2 - delta) + n delta``.
    """
    check_tolerance(tolerance_bits)
    params = compiled.params
    formula = compiled.formula
    delta = params.delta_bits
    rows: list[GadgetCheckRow] = []

    def check(name: str, observed: float, expected: float) -> None:
        rows.append(
            GadgetCheckRow(
                name=name,
                observed_bits=observed,
                expected_bits=expected,
                passed=abs(observed - expected) <= tolerance_bits,
            )
        )

    for node in compiled.nodes:
        check(
            f"entropy[{node.name}]",
            compiled.joint_entropy_bits([node.name]),
            node.analytic_bits,
        )
    for i in range(1, formula.num_vars + 1):
        (a, _), (b, _), (c, _) = formula.occurrences(i)
        ca, cb, cc = f"C{a + 1}", f"C{b + 1}", f"C{c + 1}"
        x, r = f"X{i}", f"R{i}"
        table = [
            ((r,), delta),
            ((r, ca), 0.5),
            ((r, cb), 0.5),
            ((r, cc), 0.5),
            ((ca, cb), 1.0 - delta),
            ((ca, cc), 0.5 - delta),
            ((cb, cc), 0.5 - delta),
        ]
        for given, expected in table:
            check(
                f"decrease[{x}|{','.join(given)}]",
                compiled.entropy_decrease_bits(x, given),
                expected,
            )
        if params.include_inedge_blockers:
            check(
                f"residual[{r}|A{i},B{i}]",
                compiled.conditional_entropy_bits(r, (f"A{i}", f"B{i}")),
                1.0,
            )
    for i in range(1, formula.num_vars):
        check(
            f"residual[L{i}|X{i},X{i + 1}]",
            compiled.conditional_entropy_bits(f"L{i}", (f"X{i}", f"X{i + 1}")),
            0.0,
        )
    observed_layers = compiled.layer_entropy_bits()
    analytic_layers = compiled.analytic_layer_entropy_bits()
    for layer in range(3):
        check(
            f"layer_entropy[{layer + 1}]",
            observed_layers[layer],
            analytic_layers[layer],
        )

    plan = compiled.plan_for_assignment(assignment)
    drop = 0.0
    for i in range(1, formula.num_vars + 1):
        node_index = compiled._index_by_name[f"X{i}"]
        given = tuple(compiled.nodes[p].name for p in plan.structure.parents[node_index])
        drop += compiled.entropy_decrease_bits(f"X{i}", given)
    expected_drop = plan.satisfied_count * (0.5 - delta) + formula.num_vars * delta
    check("assignment_drop", drop, expected_drop)

    return GadgetAudit(
        rows=tuple(rows),
        assignment=plan.assignment,
        satisfied_count=plan.satisfied_count,
        observed_drop_bits=drop,
        expected_drop_bits=expected_drop,
        structure_is_polytree=is_polytree(plan.structure),
        structure_max_indegree=max_indegree(plan.structure),
    )
