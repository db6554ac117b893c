"""What the benchmark tracer in ``bench/tracer.py`` reads of the program.

The tracer wraps its ``TARGETS`` by name and reads a few attributes of their
arguments and results. A target the program no longer defines only makes
its per-layer metric read zero, so these checks keep the names in step.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from polytreelab.cnf import bundled_formulas
from polytreelab.gadget import CompiledGadget, GadgetParams
from polytreelab.search import SearchReport

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _ in TRACER.TARGETS]
)
def test_every_target_resolves(module_name, attr):
    holder = importlib.import_module(module_name)
    for part in attr.split("."):
        holder = getattr(holder, part)
    assert callable(holder)


@pytest.mark.parametrize("blockers", [False, True])
def test_gadget_nodes_name_their_coins(blockers):
    # gadget.coins_enumerated counts 2^len of the union of node.coins, so
    # each node's coins are exactly the distinct coins of its bit rows.
    formula = dict(bundled_formulas())["two_variable"]
    gadget = CompiledGadget(formula, GadgetParams(include_inedge_blockers=blockers))
    for name in gadget.node_names:
        node = gadget.node(name)
        assert isinstance(node.coins, tuple) and node.coins
        assert len(set(node.coins)) == len(node.coins)
        assert set(node.coins) == {coin for row in node.rows for coin in row}
        assert all(coin in gadget.coin_biases for coin in node.coins)
        assert node.arity == 2 ** len(node.rows)


def test_report_fields_are_search_report_fields():
    names = {field.name for field in fields(SearchReport)}
    assert "instances_enumerated" in names
    for span, attr in TRACER.load_layers()["report_fields"].values():
        assert span in {span for _, _, span in TRACER.TARGETS}
        assert attr in names
