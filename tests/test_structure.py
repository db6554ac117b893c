"""Directed structures: validity predicates, scoring, serialization."""

import math

import numpy as np
import pytest

from polytreelab.distribution import Distribution, VariableMeta
from polytreelab.errors import FormatError, ValidationError
from polytreelab.generators import parity_fixture
from polytreelab.structure import (
    Structure,
    count_sources_and_multiparents,
    edge_count,
    is_branching,
    is_polytree,
    max_indegree,
    node_ordered_total,
    read_structure_dot,
    read_structure_json,
    score,
    score_report_dict,
    skeleton_components,
    structure_from_dot,
    structure_from_json_dict,
    structure_to_dot,
    structure_to_json_dict,
    write_structure_dot,
    write_structure_json,
)


class TestStructureValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Structure(2, [(0,), ()])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(ValidationError):
            Structure(2, [(2,), ()])

    def test_empty_factory(self):
        empty = Structure.empty(3)
        assert edge_count(empty) == 0
        assert is_branching(empty)

    def test_edges_sorted(self):
        s = Structure(3, [(2, 1), (), ()])
        assert s.edges() == [(1, 0), (2, 0)]

    def test_equality_and_hash_by_parent_sets(self):
        a = Structure(3, [(1, 2), (), ()])
        b = Structure(3, [(2, 1), (), ()])
        assert a == b
        assert hash(a) == hash(b)


class TestPolytreePredicates:
    def test_tree_is_polytree(self):
        s = Structure(4, [(), (0,), (0,), (2,)])
        assert is_polytree(s)

    def test_v_structure_is_polytree_but_not_branching(self):
        s = Structure(3, [(1, 2), (), ()])
        assert is_polytree(s)
        assert not is_branching(s)
        assert max_indegree(s) == 2

    def test_skeleton_cycle_is_rejected(self):
        s = Structure(3, [(1,), (2,), (0,)])
        assert not is_polytree(s)

    def test_opposite_edges_are_rejected(self):
        s = Structure(3, [(1,), (0,), ()])
        assert not is_polytree(s)

    def test_diamond_is_rejected(self):
        s = Structure(4, [(), (0,), (0,), (1, 2)])
        assert not is_polytree(s)

    def test_too_many_edges_fail_fast(self):
        s = Structure(3, [(1, 2), (2,), ()])
        assert not is_polytree(s)

    def test_source_and_multiparent_counts(self):
        s = Structure(4, [(1, 2), (), (), (0,)])
        assert count_sources_and_multiparents(s) == (2, 1)

    def test_components(self):
        s = Structure(5, [(1,), (), (), (2,), ()])
        assert skeleton_components(s) == [(0, 1), (2, 3), (4,)]


class TestScore:
    def test_parity2_known_ladder(self):
        dist, generating = parity_fixture("parity2")
        assert score(dist, Structure.empty(3)).total_bits == pytest.approx(3.0, abs=1e-9)
        assert score(dist, generating).total_bits == pytest.approx(2.0, abs=1e-9)

    def test_report_dict_shape(self):
        dist, generating = parity_fixture("parity2")
        doc = score_report_dict(dist, generating)
        assert doc["total_bits"] == pytest.approx(2.0, abs=1e-9)
        assert doc["per_node"][0]["parents"] == ["X2", "X3"]
        assert doc["per_node"][0]["h_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_score_totals_are_sum_of_parts(self):
        rng = np.random.default_rng(0)
        table = rng.exponential(size=(2, 2, 2))
        table /= table.sum()
        dist = Distribution([VariableMeta(f"X{i}", 2) for i in range(3)], table)
        s = Structure(3, [(), (0,), (0, 1)])
        breakdown = score(dist, s)
        assert breakdown.total_bits == pytest.approx(sum(breakdown.per_node_bits))

    def test_totals_add_left_to_right_in_node_order(self):
        # A compensated sum (math.fsum, or sum() on Python 3.12+) would
        # keep the two tiny terms.
        terms = [1.0, 1e-16, 1e-16]
        assert node_ordered_total(terms) == 1.0 != math.fsum(terms)
        rows = np.array([terms, terms[::-1]]).T
        assert node_ordered_total(rows).tolist() == [1.0, 1.0000000000000002]

    def test_size_mismatch_rejected(self):
        dist, _ = parity_fixture("parity2")
        with pytest.raises(ValidationError):
            score(dist, Structure.empty(4))


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        s = Structure(3, [(1, 2), (), ()])
        path = str(tmp_path / "s.json")
        write_structure_json(s, ["A", "B", "C"], path)
        back, names = read_structure_json(path)
        assert back == s
        assert names == ("A", "B", "C")

    def test_json_dict_rejects_bad_parent_index(self):
        with pytest.raises(FormatError):
            structure_from_json_dict({"names": ["A"], "parents": [[1]]})

    def test_json_dict_default_names(self):
        doc = {"parents": [[], [0]]}
        s, names = structure_from_json_dict(doc)
        assert names == ("X1", "X2")
        assert s.edges() == [(0, 1)]

    def test_dot_round_trip(self, tmp_path):
        s = Structure(4, [(), (0,), (0, 3), ()])
        path = str(tmp_path / "s.dot")
        write_structure_dot(s, ["a", "b", "c", "d"], path)
        back, names = read_structure_dot(path)
        assert set(names) == {"a", "b", "c", "d"}
        index = {n: i for i, n in enumerate(names)}
        rebuilt = {(names[p], names[c]) for p, c in back.edges()}
        assert rebuilt == {("a", "b"), ("a", "c"), ("d", "c")}
        assert index  # names are unique

    def test_dot_quotes_awkward_names(self):
        s = Structure(2, [(), (0,)])
        text = structure_to_dot(s, ["weird name", "x-y"])
        back, names = structure_from_dot(text)
        assert set(names) == {"weird name", "x-y"}
        assert back.edges() == [(names.index("weird name"), names.index("x-y"))] or [
            (0, 1)
        ]

    def test_dot_rejects_garbage(self):
        with pytest.raises(FormatError):
            structure_from_dot("not a graph at all")

    def test_json_dict_is_stable(self):
        s = Structure(3, [(2, 1), (), ()])
        doc = structure_to_json_dict(s, ["A", "B", "C"])
        assert doc == {"names": ["A", "B", "C"], "parents": [[1, 2], [], []]}
