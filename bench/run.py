"""Benchmark of the polytreelab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a closed loop with
one client: one cold ``python -m polytreelab ... `` process at a time
(``PYTHONPATH=src``, ``--jobs 1``), repeating whole cycles of its ops until
``--seconds`` have passed. Inputs are generated from ``--seed`` into
``.bench_work/``; every distinct output is checked by the independent oracle
in ``oracle.py`` and for byte-identical repeats.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each op runs untraced and then traced (``tracer.py``)
and the line carries the per-layer metrics. The lines before it list every
metric with its unit and sample count. The environment, input sizes,
per-call times, failures and (traced) spans go to
``.bench_work/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
LEDGER = os.path.join(WORK_ROOT, "stdout-sha256.json")
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def run_child(argv: list[str], stdout_path: str) -> tuple[float, float, int]:
    """Run one cold process; returns (wall s, max RSS MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "polytreelab", *args]


def measure_setup(work: str) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI, several times."""
    out = os.path.join(work, "setup.out")
    return [
        run_child([sys.executable, "-c", "import polytreelab.cli"], out)[0]
        for _ in range(SETUP_REPEATS)
    ]


def call_key(call: workloads.Call) -> str:
    """Names a call by its arguments and input bytes, not by its paths."""
    parts = []
    for arg in call.args:
        if arg in call.inputs:
            parts.append("sha256:" + file_sha256(arg))
        elif os.path.isabs(arg):
            parts.append(os.path.basename(arg))
        else:
            parts.append(arg)
    return sha256(json.dumps(parts).encode())


def output_digest(call: workloads.Call, stdout_path: str) -> str:
    digest = file_sha256(stdout_path)
    if "csv" in call.context:  # gen cnf: the written dataset is output too
        digest += ":" + file_sha256(call.context["csv"])
    return digest


class Loop:
    """The closed loop: whole cycles of ops, one process at a time."""

    def __init__(self, workload: workloads.Workload, work: str, trace: bool):
        self.workload = workload
        self.work = work
        self.trace = trace
        self.op_s: list[float] = []  # per timed op
        self.rss: list[float] = []  # per timed call
        self.call_s: list[tuple[str, float]] = []
        self.digests: dict[str, list[str]] = {}  # call label -> digest per timed run
        self.first_stdout: dict[str, bytes] = {}
        self.runs: dict[str, int] = {}  # call label -> processes started
        self.failures: list[tuple[str, str]] = []
        self.traced_records: list[dict] = []
        self.missing_targets: set[str] = set()  # trace targets the program lacks
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.cycles = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        """Every process of a call label with any failure counts as failed."""
        return sum(self.runs[label] for label in {label for label, _ in self.failures})

    def fail(self, label: str, why: str) -> None:
        self.failures.append((label, why))

    def run_untraced(self, call: workloads.Call, timed: bool = True) -> tuple[float, bytes]:
        path = os.path.join(self.work, "call.out")
        wall, rss, code = run_child(cli_argv(call.args), path)
        self.runs[call.label] = self.runs.get(call.label, 0) + 1
        if code != 0:
            with open(path + ".err", "rb") as fh:
                self.fail(call.label, f"exit code {code}: {fh.read()[-500:]!r}")
        with open(path, "rb") as fh:
            data = fh.read()
        if timed:
            self.rss.append(rss)
            self.call_s.append((call.label, wall))
            self.digests.setdefault(call.label, []).append(output_digest(call, path))
            self.first_stdout.setdefault(call.label, data)
        return wall, data

    def run_traced(self, call: workloads.Call, untraced_out: bytes) -> float:
        spans = os.path.join(self.work, "spans.json")
        out = os.path.join(self.work, "traced.out")
        argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans, out, *call.args]
        wall, _, code = run_child(argv, out + ".wrapper")
        self.runs[call.label] += 1
        if code != 0:
            self.fail(call.label, f"traced run exit code {code}")
            return wall
        with open(spans, encoding="utf-8") as fh:
            record = json.load(fh)
        self.missing_targets.update(record["missing_targets"])
        record["label"] = call.label
        record["op"] = len(self.op_s)
        self.traced_records.append(record)
        with open(out, "rb") as fh:
            if fh.read() != untraced_out:
                self.fail(call.label, "traced stdout differs from untraced stdout")
        return wall

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            for op in self.workload.cycle:
                op_s = 0.0
                for call in op:
                    untraced_s, data = self.run_untraced(call)
                    op_s += untraced_s
                    if self.trace:
                        self.untraced_s += untraced_s
                        self.traced_s += self.run_traced(call, data)
                self.op_s.append(op_s)
            self.cycles += 1
            if time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start


def check_outputs(loop: Loop) -> None:
    """Oracle checks on each distinct output, plus determinism checks."""
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
    for call in loop.workload.calls:
        digests = loop.digests[call.label]
        if len(set(digests)) != 1:
            loop.fail(call.label, f"output differs across {len(digests)} repeats")
        if ledger.setdefault(call_key(call), digests[0]) != digests[0]:
            loop.fail(call.label, "output differs from an earlier run on the same input")
        try:
            doc = json.loads(loop.first_stdout[call.label])
        except ValueError:
            loop.fail(call.label, "stdout is not one JSON report")
            continue
        try:
            problems = oracle.check(call, doc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems = [f"report lacks an expected field ({exc!r})"]
        for why in problems:
            loop.fail(call.label, why)
    tmp = LEDGER + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=0, sort_keys=True)
    os.replace(tmp, LEDGER)


def check_jobs(loop: Loop) -> None:
    """An exact-search call must print the same bytes with two workers."""
    call = loop.workload.calls[0]
    assert call.args[-2] == "--jobs"
    jobs = str(min(2, os.cpu_count() or 1))
    two = workloads.Call(f"{call.label}[--jobs {jobs}]", call.command, call.args[:-1] + [jobs], call.inputs)
    _, data = loop.run_untraced(two, timed=False)
    if data != loop.first_stdout[call.label]:
        loop.fail(two.label, "output differs from --jobs 1")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    return sizes


def environment() -> dict:
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "git_commit": git_commit(),
        "caches": cache_sizes(),
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    value, pct, beyond = tail(loop.op_s)
    metrics = {
        "op_s_p50": metric(statistics.median(loop.op_s), "s"),
        "op_s_tail": metric(value, "s"),
        "ops_per_s": metric(len(loop.op_s) / loop.wall, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(max(loop.rss), "MB"),
    }
    counts = {name: len(loop.op_s) for name in metrics}
    counts["setup_s"] = len(setup)
    counts["peak_rss_mb"] = len(loop.rss)
    notes = {"op_s_tail": f"p{pct:.1f}, {beyond} samples beyond"}
    return metrics, {"counts": counts, "notes": notes}


def per_layer(loop: Loop) -> tuple[dict, dict]:
    layers = tracer.load_layers()["per_layer_units"]
    values = tracer.per_layer_metrics(loop.traced_records, loop.traced_s, loop.untraced_s)
    metrics = {name: metric(values[name], unit) for name, unit in layers.items()}
    return metrics, {"counts": {name: len(loop.traced_records) for name in metrics}, "notes": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    corpus = os.path.join(SRC, "polytreelab", "data", "cnf")
    if not os.path.isfile(os.path.join(SRC, "polytreelab", "cli.py")) or not os.path.isdir(corpus):
        print(f"error: no polytreelab source under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, work, corpus)
        setup = [] if args.trace else measure_setup(work)
        inputs_s = time.perf_counter() - setup_start

        loop = Loop(workload, work, bool(args.trace))
        loop.run(args.seconds)
        if args.workload == "exact-audit":
            check_jobs(loop)
        check_outputs(loop)

        if args.trace:
            metrics, extra = per_layer(loop)
        else:
            metrics, extra = end_to_end(loop, setup)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
            "sizes": workload.sizes,
            "ops_per_cycle": len(workload.cycle),
            "calls_per_cycle": len(workload.calls),
            "cycles": loop.cycles,
            "loop_wall_s": loop.wall,
            "op_s": loop.op_s,
            "call_s": loop.call_s,
            "setup_and_inputs_s": inputs_s,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "failed_ratio": loop.failed / loop.attempted,
            "failures": [f"{label}: {why}" for label, why in loop.failures],
            "missing_trace_targets": sorted(loop.missing_targets),
            "metrics": metrics,
            **extra,
        }
        if args.trace:
            result["traces"] = loop.traced_records
        out_path = os.path.join(WORK_ROOT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# sizes {json.dumps(workload.sizes, sort_keys=True)}")
    for why in result["failures"]:
        print(f"# FAILED {why}")
    for target in result["missing_trace_targets"]:
        print(f"# not traced (absent from the program): {target}")
    for name, m in metrics.items():
        note = extra["notes"].get(name, "")
        print(f"{args.workload:14s} {name:36s} {m['value']:>14.6g} {m['unit']:6s} n={extra['counts'][name]} {note}")
    print(f"{args.workload:14s} {'failed_ratio':36s} {result['failed_ratio']:>14.6g} {'ratio':6s} n={loop.attempted}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
