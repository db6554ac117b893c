"""What the benchmark in ``bench/`` reads of the program.

The tracer wraps its ``TARGETS`` by name and reads a few attributes of their
arguments and results. A target the program no longer defines only makes
its per-layer metric read zero, so these checks keep the names in step.
Every command line a workload runs must also keep working: an option it
passes that the program drops would otherwise show only when the
benchmark runs. And every module the tracer wraps must load with the CLI.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from polytreelab.cli import main
from polytreelab.cnf import bundled_formulas
from polytreelab.gadget import CompiledGadget, GadgetParams
from polytreelab.search import SearchReport

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


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
    for name in gadget.names:
        node = gadget.node(name)
        assert isinstance(node.coins, tuple) and node.coins
        assert len(set(node.coins)) == len(node.coins)
        assert set(node.coins) == {coin for row in node.rows for coin in row}
        assert all(coin in gadget.coin_biases for coin in node.coins)
        assert node.arity == 2 ** len(node.rows)


def test_importing_the_cli_loads_every_target_module(tmp_path):
    # The tracer wraps its targets only in the modules that sys.modules holds
    # right after it imports polytreelab.cli; a target module loaded later,
    # inside the command, would lose its spans. So every module it names
    # must load with the CLI, in a fresh interpreter.
    modules = sorted({module for module, _, _ in TRACER.TARGETS})
    script = (
        "import sys\nimport polytreelab.cli\n"
        f"print([m for m in {modules!r} if m not in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"[]"]


def test_report_fields_are_search_report_fields():
    names = {field.name for field in fields(SearchReport)}
    assert "instances_enumerated" in names
    for span, attr in TRACER.load_layers()["report_fields"].values():
        assert span in {span for _, _, span in TRACER.TARGETS}
        assert attr in names


@pytest.fixture
def workloads(monkeypatch):
    # ``workloads`` imports the benchmark's ``oracle`` as a top-level module.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


def test_every_benchmark_call_runs(workloads, tmp_path):
    corpus = str(ROOT / "src" / "polytreelab" / "data" / "cnf")
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        calls = workloads.build(name, 0, str(work), corpus).calls
        outputs = []
        for call in calls:
            result = CliRunner().invoke(main, call.args)
            assert result.exit_code == 0, (call.label, result.output)
            outputs.append(result.output)
        if name == "exact-audit":
            # As the harness checks: two workers print the same bytes.
            args = calls[0].args
            assert args[-2:] == ["--jobs", "1"]
            result = CliRunner().invoke(main, args[:-1] + ["2"])
            assert result.exit_code == 0, result.output
            assert result.output == outputs[0]
