"""Outside-in span tracing of one CLI call, and the per-layer arithmetic.

Run as a script, this replays one call in a fresh interpreter::

    python bench/tracer.py SPANS_OUT STDOUT_OUT ARG...

It imports ``polytreelab``, wraps the public functions in ``TARGETS`` (in
their defining module and in every ``polytreelab`` module that imported them
by name), calls ``polytreelab.cli.main(ARGS, standalone_mode=False)`` with
stdout captured, and writes the spans it kept in memory as JSON at the end.
A span is ``[name, start, end, parent]``; its index is its id and -1 marks a
top-level span. The program's code is not modified.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

LAYERS_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")

# (module, attribute or Class.method, span name)
TARGETS = (
    ("polytreelab.distribution", "entropy", "distribution.entropy"),
    ("polytreelab.distribution", "read_dataset_csv", "distribution.read_csv"),
    ("polytreelab.distribution", "empirical_distribution", "distribution.empirical"),
    ("polytreelab.distribution", "read_distribution_json", "distribution.read_json"),
    ("polytreelab.distribution", "write_dataset_csv", "distribution.write_csv"),
    ("polytreelab.structure", "score", "structure.score"),
    ("polytreelab.branching", "mutual_information_edges", "branching.mi_edges"),
    ("polytreelab.branching", "learn_optimal_branching", "branching.learn"),
    ("polytreelab.search", "exact_optimal_polytree", "search.exact"),
    ("polytreelab.search", "local_search_polytree", "search.local"),
    ("polytreelab.bounds", "verify_bounds", "bounds.verify"),
    ("polytreelab.gadget", "CompiledGadget.joint_entropy_bits", "gadget.entropy"),
    ("polytreelab.gadget", "CompiledGadget.sample_dataset", "gadget.sample"),
    ("polytreelab.gadget", "verify_gadget", "gadget.verify"),
    ("polytreelab.cnf", "best_assignment", "cnf.best_assignment"),
    ("polytreelab.reports", "write_report", "reports.write"),
)


def load_layers() -> dict:
    with open(LAYERS_JSON, encoding="utf-8") as fh:
        return json.load(fh)


class Recorder:
    """Spans and counters of one call, kept in memory."""

    def __init__(self, report_fields: dict[str, list[str]]):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        # span name -> [(metric, result attribute)]
        self.result_fields: dict[str, list[tuple[str, str]]] = {}
        for metric, (span, attr) in report_fields.items():
            self.result_fields.setdefault(span, []).append((metric, attr))

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self.stack
        fields = self.result_fields.get(name, ())

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][1] = start
                spans[sid][2] = end
            for metric, attr in fields:
                self.count(metric, int(getattr(result, attr)))
            if on_return is not None:
                on_return(args, kwargs)
            return result

        return traced

    def distinct_key(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)


def _entropy_key(rec: Recorder):
    def hook(args, kwargs):
        dist = args[0]
        axes = args[1] if len(args) > 1 else kwargs.get("variables")
        axes = tuple(range(dist.n)) if axes is None else tuple(sorted(int(a) for a in axes))
        rec.distinct_key("distribution.entropy", (id(dist), axes))

    return hook


def _gadget_entropy_key(rec: Recorder):
    def hook(args, kwargs):
        gadget, names = args[0], args[1] if len(args) > 1 else kwargs["names"]
        rec.distinct_key("gadget.entropy", (id(gadget), frozenset(names)))
        coins = {c for name in names for c in gadget.node(name).coins}
        rec.count("gadget.coins_enumerated", (1 << len(coins)) if coins else 0)

    return hook


def install(rec: Recorder) -> list[str]:
    """Replace every target by its traced wrapper wherever it is bound.

    Returns the targets the program no longer defines; their layers read
    zero, and the benchmark reports them by name.
    """
    import importlib

    hooks = {"distribution.entropy": _entropy_key(rec), "gadget.entropy": _gadget_entropy_key(rec)}
    importlib.import_module("polytreelab.cli")
    modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "polytreelab" and m]
    missing = []
    for module_name, attr, span in TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, _, meth = attr.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        original = getattr(holder, meth, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = rec.wrap(span, original, hooks.get(span))
        if cls_name:
            setattr(holder, meth, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def inclusive_time(spans: list[list], name: str) -> float:
    """Time inside spans called ``name``, nested repeats counted once."""
    total = 0.0
    for sid, (span_name, start, end, parent) in enumerate(spans):
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def call_layers(record: dict) -> dict[str, float]:
    """Per-layer sums of one traced call (see layers.json for meanings)."""
    spans = record["spans"]
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_sum: dict[str, float] = {}
    for (name, _, _, _), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + s
    incl = {name: inclusive_time(spans, name) for name in calls}
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    c = record["counters"]
    d = record["distinct"]
    return {
        "search.exact_self_s": self_sum.get("search.exact", 0.0),
        "search.orientations_scored": c.get("search.orientations_scored", 0),
        "search.local_self_s": self_sum.get("search.local", 0.0),
        "search.moves_evaluated": c.get("search.moves_evaluated", 0),
        "distribution.entropy_calls": calls.get("distribution.entropy", 0),
        "distribution.entropy_distinct": d.get("distribution.entropy", 0),
        "distribution.entropy_s": incl.get("distribution.entropy", 0.0),
        "distribution.read_csv_s": incl.get("distribution.read_csv", 0.0),
        "distribution.empirical_s": incl.get("distribution.empirical", 0.0),
        "distribution.read_json_s": incl.get("distribution.read_json", 0.0),
        "distribution.write_csv_s": incl.get("distribution.write_csv", 0.0),
        "branching.mi_edges_calls": calls.get("branching.mi_edges", 0),
        "branching.mi_edges_s": incl.get("branching.mi_edges", 0.0),
        "branching.learn_self_s": self_sum.get("branching.learn", 0.0),
        "gadget.entropy_calls": calls.get("gadget.entropy", 0),
        "gadget.entropy_distinct": d.get("gadget.entropy", 0),
        "gadget.entropy_s": incl.get("gadget.entropy", 0.0),
        "gadget.coins_enumerated": c.get("gadget.coins_enumerated", 0),
        "gadget.sample_s": incl.get("gadget.sample", 0.0),
        "gadget.verify_self_s": self_sum.get("gadget.verify", 0.0),
        "cnf.best_assignment_s": incl.get("cnf.best_assignment", 0.0),
        "bounds.verify_s": incl.get("bounds.verify", 0.0),
        "structure.score_s": incl.get("structure.score", 0.0),
        "reports.write_s": incl.get("reports.write", 0.0),
        "cli.other_s": record["main_s"] - top,
    }


def per_layer_metrics(records: list[dict], traced_s: float, untraced_s: float) -> dict[str, float]:
    """Means per traced call over ``records``; ratios are taken over the sums."""
    empty = {"main_s": 0.0, "spans": [], "counters": {}, "distinct": {}}
    sums: dict[str, float] = dict.fromkeys(call_layers(empty), 0)
    for record in records:
        for key, value in call_layers(record).items():
            sums[key] += value
    calls = max(len(records), 1)
    out = {key: value / calls for key, value in sums.items() if not key.endswith("_distinct")}
    exact_s = sums["search.exact_self_s"]
    out["search.orientations_per_s"] = sums["search.orientations_scored"] / exact_s if exact_s else 0.0
    for layer in ("distribution", "gadget"):
        queries = sums[f"{layer}.entropy_calls"]
        out[f"{layer}.entropy_distinct_ratio"] = sums[f"{layer}.entropy_distinct"] / queries if queries else 0.0
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def main(argv: list[str]) -> int:
    spans_out, stdout_out, args = argv[0], argv[1], argv[2:]
    rec = Recorder(load_layers()["report_fields"])
    missing = install(rec)
    from polytreelab import cli

    buffer = io.StringIO()
    code = 0
    start = time.perf_counter()
    with redirect_stdout(buffer):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    with open(stdout_out, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "main_s": main_s,
                "spans": rec.spans,
                "counters": rec.counters,
                "distinct": {k: len(v) for k, v in rec.distinct.items()},
                "missing_targets": missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
