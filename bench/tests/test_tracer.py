"""Self-time arithmetic on a synthetic span tree, and a traced replay."""

import json
import os
import subprocess
import sys

import pytest

import tracer

# [name, start, end, parent]; ids are list positions.
SPANS = [
    ["search.exact", 0.0, 10.0, -1],
    ["branching.learn", 1.0, 4.0, 0],
    ["branching.mi_edges", 2.0, 3.0, 1],
    ["distribution.entropy", 5.0, 9.0, 0],
    ["reports.write", 11.0, 12.0, -1],
]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(SPANS) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_inclusive_time_counts_nested_repeats_once():
    spans = [["x", 0.0, 10.0, -1], ["y", 1.0, 6.0, 0], ["x", 2.0, 5.0, 1], ["x", 12.0, 13.0, -1]]
    assert tracer.inclusive_time(spans, "x") == 11.0
    assert tracer.inclusive_time(spans, "y") == 5.0


def test_per_layer_metrics_from_one_record():
    record = {
        "main_s": 14.0,
        "spans": SPANS,
        "counters": {"search.orientations_scored": 600},
        "distinct": {"distribution.entropy": 1},
    }
    out = tracer.per_layer_metrics([record, record], traced_s=6.0, untraced_s=5.0)
    assert out["search.exact_self_s"] == 3.0
    assert out["search.orientations_scored"] == 600
    assert out["search.orientations_per_s"] == 200.0
    assert out["branching.learn_self_s"] == 2.0
    assert out["branching.mi_edges_s"] == 1.0
    assert out["distribution.entropy_s"] == 4.0
    assert out["distribution.entropy_distinct_ratio"] == 1.0
    assert out["cli.other_s"] == 14.0 - 11.0
    assert out["gadget.entropy_calls"] == 0
    assert out["gadget.entropy_distinct_ratio"] == 0.0
    assert out["trace.overhead_ratio"] == pytest.approx(1.2)


def test_every_per_layer_metric_is_computed():
    out = tracer.per_layer_metrics([], traced_s=1.0, untraced_s=1.0)
    assert set(tracer.load_layers()["per_layer_units"]) == set(out)


def test_traced_replay_prints_the_untraced_bytes(tmp_path):
    root = os.path.dirname(os.path.dirname(tracer.LAYERS_JSON))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    dist = tmp_path / "parity3.json"
    cli = [sys.executable, "-m", "polytreelab"]
    subprocess.run(cli + ["gen", "example", "--name", "parity3", "--out", str(dist)],
                   check=True, env=env, capture_output=True)
    args = ["exact-polytree", "--dist", str(dist), "--k", "3", "--jobs", "1"]
    plain = subprocess.run(cli + args, check=True, env=env, capture_output=True).stdout
    spans, out = tmp_path / "spans.json", tmp_path / "traced.out"
    subprocess.run([sys.executable, os.path.join(root, "bench", "tracer.py"), str(spans), str(out), *args],
                   check=True, env=env)
    assert out.read_bytes() == plain
    record = json.loads(spans.read_text())
    names = {span[0] for span in record["spans"]}
    assert {"search.exact", "distribution.entropy", "reports.write"} <= names
    assert record["counters"]["search.orientations_scored"] == json.loads(plain)["instances_enumerated"]


def test_benchmark_json_names_the_emitted_per_layer_metrics():
    root = os.path.dirname(os.path.dirname(tracer.LAYERS_JSON))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == tracer.load_layers()["per_layer_units"]
