"""Exhaustive polytree search and greedy local search."""

import numpy as np
import pytest

from brute_force import brute_force_branching
from polytreelab.branching import learn_optimal_branching
from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import Distribution, VariableMeta
from polytreelab.errors import CapExceededError, InvariantError, ValidationError
from polytreelab.gadget import CompiledGadget
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
)
from polytreelab import search as search_mod
from polytreelab.search import (
    EXACT_MAX_NODES,
    LOCAL_IMPROVEMENT_EPS,
    _check_k_polytree,
    exact_optimal_polytree,
    local_search_polytree,
)
from polytreelab.structure import (
    Structure,
    is_polytree,
    max_indegree,
    score,
)


class TestExactSearch:
    def test_parity3_ladder(self):
        dist, _ = parity_fixture("parity3")
        assert exact_optimal_polytree(dist, 3).best_score_bits == pytest.approx(
            3.0, abs=1e-9
        )
        assert exact_optimal_polytree(dist, 2).best_score_bits == pytest.approx(
            4.0, abs=1e-9
        )
        report = exact_optimal_polytree(dist)
        assert report.best_score_bits == pytest.approx(3.0, abs=1e-9)
        assert report.ratio == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_best_is_valid_polytree_within_indegree(self):
        for seed in range(12):
            dist = random_joint_distribution([2, 2, 3, 2], seed=seed)
            for k in (1, 2):
                report = exact_optimal_polytree(dist, k)
                assert is_polytree(report.best)
                assert max_indegree(report.best) <= k

    def test_k1_matches_branching_oracle(self):
        for seed in range(15):
            dist = random_joint_distribution(
                [2 + (seed + i) % 2 for i in range(4)], seed=300 + seed
            )
            exact = exact_optimal_polytree(dist, 1).best_score_bits
            brute = score(dist, brute_force_branching(dist)).total_bits
            assert exact == pytest.approx(brute, abs=1e-9)

    def test_optimum_never_above_any_candidate(self):
        for seed in range(8):
            dist, generating = random_polytree_instance(5, 2, 2, seed=seed)
            report = exact_optimal_polytree(dist, 2)
            assert (
                report.best_score_bits
                <= score(dist, generating).total_bits + 1e-9
            )
            assert report.best_score_bits <= report.branching_score_bits + 1e-9

    def test_rerun_on_a_warm_memo_matches_the_first_run(self):
        dist = random_joint_distribution([2, 2, 2, 3], seed=77)
        first = exact_optimal_polytree(dist, 2)
        again = exact_optimal_polytree(dist, 2)
        assert first.best == again.best
        assert first.best_score_bits == again.best_score_bits
        assert first.instances_enumerated == again.instances_enumerated

    def test_node_cap_names_constraint(self):
        dist = random_joint_distribution([2] * (EXACT_MAX_NODES + 1), seed=1)
        with pytest.raises(CapExceededError) as exc:
            exact_optimal_polytree(dist)
        assert exc.value.constraint == "exact_search_max_nodes"

    def test_rejects_bad_k(self):
        dist = random_joint_distribution([2, 2], seed=2)
        with pytest.raises(ValidationError):
            exact_optimal_polytree(dist, -1)

    def test_ratio_undefined_when_optimum_is_free(self):
        table = np.zeros((2, 2))
        table[0, 0] = 1.0
        dist = Distribution([VariableMeta("A", 2), VariableMeta("B", 2)], table)
        report = exact_optimal_polytree(dist)
        assert report.best_score_bits == pytest.approx(0.0, abs=1e-12)
        assert report.ratio is None
        assert report.excess_bits == pytest.approx(0.0, abs=1e-9)

    def test_k0_grows_no_forest_with_an_edge(self, monkeypatch):
        grow = search_mod._forest_levels
        consumed = []

        def counted(n):
            for e, level in grow(n):
                consumed.append(e)
                yield e, level

        monkeypatch.setattr(search_mod, "_forest_levels", counted)
        dist, _ = random_polytree_instance(6, 2, 2, 3)
        report = exact_optimal_polytree(dist, 0)
        assert consumed == [0]
        assert report.best == Structure.empty(6)
        assert report.best_score_bits == score(dist, report.best).total_bits
        assert report.instances_enumerated == 1

    @pytest.mark.parametrize("seed", [26, 34, 108, 148, 191])
    def test_score_totals_the_optimum_as_the_search_does(self, seed):
        # The optimum is the learned branching, so score() must add its
        # terms to the search's float: a compensated sum would differ.
        dist, _ = random_polytree_instance(6, 2, 2, seed)
        report = exact_optimal_polytree(dist, 2)
        assert report.best == report.branching
        assert score(dist, report.best).total_bits == report.best_score_bits
        assert report.excess_bits == 0.0

    def test_single_variable_instance(self):
        dist = Distribution([VariableMeta("A", 3)], np.array([0.2, 0.3, 0.5]))
        report = exact_optimal_polytree(dist)
        assert report.best == Structure.empty(1)
        assert report.instances_enumerated == 1


class TestLocalSearch:
    def test_never_worse_than_seed(self):
        for seed in range(20):
            dist = random_joint_distribution([2, 2, 2, 2], seed=400 + seed)
            seed_structure = learn_optimal_branching(dist)
            report = local_search_polytree(dist, 2, seed_structure)
            assert (
                report.best_score_bits
                <= score(dist, seed_structure).total_bits + 1e-9
            )
            assert is_polytree(report.best)
            assert max_indegree(report.best) <= 2

    def test_finds_obvious_single_edge_gains(self):
        # X2 copies X1, X3 copies X2: two add moves reach the 1-bit chain.
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        dist = Distribution([VariableMeta(f"X{i + 1}", 2) for i in range(3)], table)
        report = local_search_polytree(dist, 2, Structure.empty(3))
        assert report.best_score_bits == pytest.approx(1.0, abs=1e-9)

    def test_zero_budget_returns_seed(self):
        dist = random_joint_distribution([2, 2, 2], seed=5)
        seed_structure = Structure(3, [(), (0,), ()])
        report = local_search_polytree(dist, 2, seed_structure, budget=0)
        assert report.best == seed_structure

    def test_parity3_stalls_below_exact_optimum(self):
        # All pairwise and two-way gains are zero here, so no single move
        # improves on the empty seed; the three-parent optimum stays out of
        # reach of this move set and the gap is real, not a test artifact.
        dist, _ = parity_fixture("parity3")
        report = local_search_polytree(dist, 3, Structure.empty(4))
        assert report.best_score_bits == pytest.approx(4.0, abs=1e-9)
        exact = exact_optimal_polytree(dist, 3)
        assert exact.best_score_bits == pytest.approx(3.0, abs=1e-9)

    def test_validates_seed_structure(self):
        dist = random_joint_distribution([2, 2, 2], seed=6)
        diamond = Structure(3, [(), (0,), (0,)])
        with pytest.raises(ValidationError):
            local_search_polytree(dist, 1, Structure(3, [(1, 2), (), ()]))
        assert is_polytree(diamond)

    def test_refuses_a_seed_of_the_wrong_size(self):
        dist = random_joint_distribution([2, 2, 2], seed=6)
        with pytest.raises(ValidationError, match="seed has 4 nodes"):
            local_search_polytree(dist, 2, Structure.empty(4))

    def test_matches_exact_often_on_small_instances(self):
        hits = 0
        total = 25
        for seed in range(total):
            dist = random_joint_distribution([2, 2, 2, 2], seed=500 + seed)
            exact = exact_optimal_polytree(dist, 2).best_score_bits
            got = local_search_polytree(dist, 2).best_score_bits
            assert got >= exact - 1e-9
            if abs(got - exact) <= 1e-9:
                hits += 1
        assert hits >= total // 2


def test_k_polytree_check_raises_a_structured_error():
    _check_k_polytree(Structure(3, [(), (0,), (0,)]), 1)
    for structure, k in (
        (Structure(3, [(), (0,), (0, 1)]), 2),  # undirected cycle 0-1-2
        (Structure(3, [(), (), (0, 1)]), 1),  # indegree 2 > 1
    ):
        with pytest.raises(InvariantError, match=f"left the {k}-polytrees"):
            _check_k_polytree(structure, k)


def _neighbours(parents: list[frozenset[int]], k: int):
    """Every labelled move of the local search, found by brute force: each
    structure one cut (none, or an edge ``u -> v``) plus at most one link
    ``x -> y`` away that is a polytree within indegree ``k``, with the nodes
    whose parents change, cut child first. A link that undoes its cut is no
    move; one that turns the cut edge around is both a reverse and a swap."""
    n = len(parents)
    edges = [(u, v) for v in range(n) for u in sorted(parents[v])]
    for cut in [None, *edges]:
        base = list(parents)
        if cut is not None:
            u, v = cut
            base[v] = base[v] - {u}
            yield ("remove", u, v), base, [v]
        for x in range(n):
            for y in range(n):
                if x == y or x in base[y] or (x, y) == cut:
                    continue
                linked = list(base)
                linked[y] = base[y] | {x}
                found = Structure(n, linked)
                if not is_polytree(found) or max_indegree(found) > k:
                    continue
                changed = [y] if cut is None else list(dict.fromkeys([cut[1], y]))
                if cut is None:
                    yield ("add", x, y), linked, changed
                    continue
                if (x, y) == cut[::-1]:
                    yield ("reverse", *cut), linked, changed
                yield ("swap", *cut, x, y), linked, changed


def _reference_local_search(
    dist: Distribution, k: int, budget: int, seed: Structure
) -> tuple[Structure, int]:
    """Steepest descent over ``_neighbours`` from ``seed``: the best
    structure and the moves evaluated."""
    n = dist.n

    def term(v: int, ps: frozenset[int]) -> float:
        return dist.oracle.conditional(v, sum(1 << p for p in ps))

    parents = list(seed.parents)
    evaluated = 0
    for _ in range(budget):
        best = None
        for move, found, changed in _neighbours(parents, k):
            evaluated += 1
            gain = 0.0
            for v in changed:
                gain += term(v, parents[v]) - term(v, found[v])
            if gain > LOCAL_IMPROVEMENT_EPS and (best is None or (-gain, move) < best[0]):
                best = (-gain, move), found
        if best is None:
            break
        parents = best[1]
    return Structure(n, parents), max(evaluated, 1)


def _copies(n: int) -> Distribution:
    """X_i = X_0 for every i."""
    table = np.zeros((2,) * n)
    table[(0,) * n] = table[(1,) * n] = 0.5
    return Distribution([VariableMeta(f"X{i}", 2) for i in range(n)], table)


LOCAL_JOINTS = {
    "parity2": lambda: parity_fixture("parity2")[0],
    "parity3": lambda: parity_fixture("parity3")[0],
    "copies4": lambda: _copies(4),
    "copies5": lambda: _copies(5),
    "random4": lambda: random_joint_distribution([2, 3, 2, 2], seed=41),
    "random5": lambda: random_joint_distribution([2, 2, 2, 2, 2], seed=51),
    "polytree5": lambda: random_polytree_instance(5, 2, 2, seed=5)[0],
    "polytree6": lambda: random_polytree_instance(6, 2, 2, seed=6)[0],
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(LOCAL_JOINTS))
def test_local_search_matches_the_brute_force_descent(name, k):
    # From the empty seed every copy is one tied add away, so the tie rule
    # decides each round on the all-copies joints.
    dist = LOCAL_JOINTS[name]()
    for seed in (learn_optimal_branching(dist), Structure.empty(dist.n)):
        for budget in (0, 1, 1000):
            report = local_search_polytree(dist, k, seed, budget=budget)
            expected = _reference_local_search(dist, k, budget, seed)
            assert (report.best, report.instances_enumerated) == expected, (seed, budget)


def _dense_joint(gadget: CompiledGadget) -> Distribution:
    """The gadget's joint as a dense table, by enumerating all its coins."""
    coins = sorted(gadget.coin_biases)
    index = np.arange(1 << len(coins))
    bits = {name: index >> pos & 1 for pos, name in enumerate(coins)}
    probs = np.ones(len(index))
    for name in coins:
        bias = gadget.coin_biases[name]
        probs *= np.where(bits[name] == 1, bias, 1.0 - bias)
    table = np.zeros([m.arity for m in gadget.variables])
    values = tuple(node.value(bits) for node in gadget.nodes)
    np.add.at(table, values, probs)
    return Distribution(gadget.variables, table)


def test_a_gadget_is_searched_like_its_dense_joint():
    formula = dict(bundled_formulas())["single_variable"]
    gadget = CompiledGadget(formula)
    dense = _dense_joint(gadget)
    assert len(gadget.coin_biases) == 7 and gadget.n == dense.n == 5
    for search in (exact_optimal_polytree, local_search_polytree):
        on_gadget, on_dense = search(gadget, 2), search(dense, 2)
        assert on_gadget.best == on_dense.best
        assert on_gadget.branching == on_dense.branching
        assert on_gadget.instances_enumerated == on_dense.instances_enumerated
        assert on_gadget.best_score_bits == pytest.approx(on_dense.best_score_bits, abs=1e-12)
        assert on_gadget.branching_score_bits == pytest.approx(
            on_dense.branching_score_bits, abs=1e-12
        )
    report = exact_optimal_polytree(gadget, 2)
    assert report.best_score_bits == pytest.approx(5.0, abs=1e-12)
    assert report.instances_enumerated == 2916
