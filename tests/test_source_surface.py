"""Every entropy source names its variables one way: a ``Distribution`` (a
random joint, or the empirical joint of a CSV dataset) and a
``CompiledGadget`` (every corpus formula, with and without blockers) answer
to ``n``, ``variables``, ``names`` and ``index_of`` alike, so code written
against one reads the other, as the CLI's report builders do."""

import pytest

from polytreelab import cli
from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import empirical_distribution, read_dataset_csv
from polytreelab.errors import ValidationError
from polytreelab.gadget import CompiledGadget, GadgetParams
from polytreelab.generators import random_joint_distribution
from polytreelab.structure import score


def _gadgets():
    for name, formula in bundled_formulas():
        for blockers in (False, True):
            params = GadgetParams(include_inedge_blockers=blockers)
            yield f"{name} blockers={blockers}", CompiledGadget(formula, params)


def _sources(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("a,b,c\n0,1,2\n1,0,0\n1,1,1\n0,0,2\n", encoding="utf-8")
    yield "random joint", random_joint_distribution([2, 3, 2], seed=5)
    yield "csv joint", empirical_distribution(read_dataset_csv(str(csv)))
    yield from _gadgets()


def test_every_source_names_its_variables_one_way(tmp_path):
    for label, source in _sources(tmp_path):
        names = source.names
        assert source.n == len(source.variables), label
        assert names == tuple(m.name for m in source.variables), label
        assert [source.index_of(name) for name in names] == list(range(source.n)), label
        with pytest.raises(ValidationError):
            source.index_of("no such variable")


def test_report_fields_read_a_gadget_by_name():
    for label, gadget in _gadgets():
        plan = gadget.plan_for_assignment().structure
        fields = cli._structure_and_score(gadget, plan)
        names = gadget.names
        assert fields["structure"] == {
            "names": list(names),
            "parents": [list(ps) for ps in plan.parents],
        }, label
        assert [(row["name"], row["parents"]) for row in fields["score"]["per_node"]] == [
            (names[i], [names[p] for p in plan.parents[i]]) for i in range(gadget.n)
        ], label
        assert fields["score"]["total_bits"] == score(gadget, plan).total_bits, label
